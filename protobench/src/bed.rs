//! The system under test: the stock STL/SWT testbed with the benchmark's
//! counting transport on the SWT side, the operations each workload
//! runs, and the checks on what they produced.

use crate::layers::{CountingTransport, TimedDriver};
use crate::spans;
use crate::Workload;
use interop::driver::FabricDriver;
use interop::proof::process_response;
use interop::setup::{issue_sample_bl, stl_swt_testbed, Testbed, BL_ADDRESS};
use interop::{InteropClient, InteropError, RemoteData};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdt_apps::stl_app::{CarrierApp, SellerApp};
use tdt_apps::swt_app::{BuyerApp, SellerClientApp};
use tdt_bench::{bl_address, bl_policy};
use tdt_contracts::stl::{BillOfLading, StlChaincode};
use tdt_contracts::swt::{LcStatus, LetterOfCredit, SwtChaincode};
use tdt_contracts::CMDAC_NAME;
use tdt_fabric::chaincode::Proposal;
use tdt_fabric::endorse::TransactionEnvelope;
use tdt_fabric::gateway::Gateway;
use tdt_fabric::network::FabricNetwork;
use tdt_ledger::storage::codec::encode_block;
use tdt_relay::chaos::SplitMix64;
use tdt_relay::discovery::{DiscoveryService, StaticRegistry};
use tdt_relay::service::RelayService;
use tdt_relay::transport::{EnvelopeHandler, PooledTcpTransport, RelayTransport, TcpRelayServer};
use tdt_wire::codec::Message;
use tdt_wire::messages::decode_certificate;

/// B/Ls each bed issues during set-up for the query workloads to read.
pub const POOL_SIZE: usize = 16;
/// Queries each bed runs during set-up, after its pool is issued.
pub const WARMUP_QUERIES: usize = 16;
/// Trades each bed runs during set-up.
pub const WARMUP_TRADES: usize = 2;
/// Submits one trade makes on each network.
pub const STL_SUBMITS_PER_TRADE: u64 = 4;
pub const SWT_SUBMITS_PER_TRADE: u64 = 5;

const BUYER: &str = "buyer-gmbh";
const SELLER: &str = "tulip-exports";

pub fn bl_id(po: &str) -> String {
    format!("BL-{po}")
}

/// One input of the trade workload.
pub struct TradeInput {
    pub po: String,
    pub goods: String,
    pub amount: u64,
}

impl TradeInput {
    pub fn draw(rng: &mut SplitMix64, seed: u64, index: usize) -> TradeInput {
        TradeInput {
            po: format!("PO-{seed}-T{index}"),
            goods: format!("{} tulip bulbs", 100 + rng.next_u64() % 900),
            amount: 10_000 + rng.next_u64() % 990_000,
        }
    }
}

pub struct Bed {
    pub t: Testbed,
    pub wire: Arc<CountingTransport>,
    pub relay: Arc<RelayService>,
    pub swt_sc: SellerClientApp,
    pub seller: SellerApp,
    pub carrier: CarrierApp,
    pub buyer: BuyerApp,
    /// The POs whose B/Ls the query workloads read.
    pub pool: Vec<String>,
    /// Encoded size of the STL blocks that issued the pool.
    pub pool_ledger_bytes: u64,
    /// The gateways the apps use, for the traced trade's split submits.
    gateways: [Gateway; 4],
    server: Option<TcpRelayServer>,
}

fn err(context: &str) -> impl Fn(InteropError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

impl Bed {
    /// Builds the testbed and the SWT-side relay the client uses, issues
    /// the workload's input pool through the program's submit path and
    /// runs the warm-up operations.
    pub fn build(workload: Workload, seed: u64, traced: bool) -> Result<Bed, String> {
        let t = stl_swt_testbed();
        if traced {
            t.stl_relay
                .register_driver(Arc::new(TimedDriver::new(FabricDriver::new(Arc::clone(
                    &t.stl,
                )))));
        }
        let (inner, discovery, server): (Arc<dyn RelayTransport>, Arc<dyn DiscoveryService>, _) =
            match workload {
                Workload::Tcp => {
                    let handler = Arc::clone(&t.stl_relay) as Arc<dyn EnvelopeHandler>;
                    let server = TcpRelayServer::spawn("127.0.0.1:0", handler)
                        .map_err(|e| format!("spawn STL relay server: {e}"))?;
                    let registry = StaticRegistry::new();
                    registry.register("stl", server.endpoint());
                    (
                        Arc::new(PooledTcpTransport::new()),
                        Arc::new(registry),
                        Some(server),
                    )
                }
                Workload::Query | Workload::Trade => {
                    (Arc::clone(&t.bus) as _, Arc::clone(&t.registry) as _, None)
                }
            };
        let wire = Arc::new(CountingTransport::new(inner));
        let relay = Arc::new(RelayService::new(
            "swt-relay",
            "swt",
            discovery,
            Arc::clone(&wire) as Arc<dyn RelayTransport>,
        ));
        let gateways = [
            t.stl_seller_gateway(),
            t.stl_carrier_gateway(),
            t.swt_buyer_gateway(),
            t.swt_seller_gateway(),
        ];
        let mut bed = Bed {
            swt_sc: SellerClientApp::new(t.swt_seller_gateway(), Arc::clone(&relay)),
            seller: SellerApp::new(t.stl_seller_gateway()),
            carrier: CarrierApp::new(t.stl_carrier_gateway()),
            buyer: BuyerApp::new(t.swt_buyer_gateway()),
            t,
            wire,
            relay,
            pool: Vec::new(),
            pool_ledger_bytes: 0,
            gateways,
            server,
        };
        let mut rng = SplitMix64::new(seed ^ 0x5e70_0b1d);
        match workload {
            Workload::Query | Workload::Tcp => {
                bed.pool = (0..POOL_SIZE).map(|i| format!("PO-{seed}-{i}")).collect();
                let before = height(&bed.t.stl);
                for po in &bed.pool {
                    issue_sample_bl(&bed.t, po);
                }
                bed.pool_ledger_bytes = ledger_bytes(&bed.t.stl, before, height(&bed.t.stl))?;
                for _ in 0..WARMUP_QUERIES {
                    let po = bed.pick(&mut rng);
                    check_bl(&bed.query(po)?, po)?;
                }
            }
            Workload::Trade => {
                for i in 0..WARMUP_TRADES {
                    let mut input = TradeInput::draw(&mut rng, seed, i);
                    input.po = format!("PO-{seed}-W{i}");
                    bed.trade(&input)?;
                }
            }
        }
        Ok(bed)
    }

    pub fn pick(&self, rng: &mut SplitMix64) -> &str {
        &self.pool[(rng.next_u64() % self.pool.len() as u64) as usize]
    }

    fn client(&self) -> &InteropClient {
        self.swt_sc.interop_client()
    }

    /// Fig. 2 steps 1-9 for `po`'s B/L, as the SWT Seller Client runs it.
    pub fn query(&self, po: &str) -> Result<RemoteData, String> {
        self.swt_sc
            .fetch_bill_of_lading(po)
            .map_err(err("fetch B/L"))
    }

    /// Steps 1-9 split into the three public calls `query_remote` makes,
    /// each under its own span; callers wrap it in a span named `query`.
    fn split_query(&self, po: &str) -> Result<RemoteData, String> {
        let client = self.client();
        let query = spans::span("client.sign", || {
            client.build_query(bl_address(po), bl_policy())
        });
        spans::expect_remote(&query.request_id);
        let response = spans::span("relay.query", || self.relay.relay_query(&query))
            .map_err(|e| format!("relay query: {e}"))?;
        let proof = spans::span("proof.verify", || {
            process_response(client.gateway().identity(), &query, &response)
        })
        .map_err(err("process response"))?;
        Ok(RemoteData {
            data: proof.result.clone(),
            proof,
        })
    }

    /// [`Bed::split_query`] as traced operation `op`.
    pub fn traced_query(&self, op: u64, po: &str) -> Result<RemoteData, String> {
        spans::traced_op(op, "query", || self.split_query(po))
    }

    /// One complete Fig. 3 trade through the applications; returns the
    /// uploaded B/L and the time of the transfer (steps 1-10).
    pub fn trade(&self, input: &TradeInput) -> Result<(Vec<u8>, Duration), String> {
        let po = input.po.as_str();
        let fab = |what: &'static str| move |e: tdt_fabric::FabricError| format!("{what}: {e}");
        self.seller
            .create_shipment(po, &input.goods)
            .map_err(fab("create shipment"))?;
        self.carrier
            .confirm_booking(po)
            .map_err(fab("confirm booking"))?;
        self.seller
            .transfer_possession(po)
            .map_err(fab("transfer possession"))?;
        self.carrier
            .issue_bill_of_lading(po, &bl_id(po))
            .map_err(fab("issue B/L"))?;
        self.buyer
            .request_lc(po, &format!("LC-{po}"), BUYER, SELLER, input.amount)
            .map_err(fab("request L/C"))?;
        self.buyer.issue_lc(po).map_err(fab("issue L/C"))?;
        let started = Instant::now();
        let remote = self
            .swt_sc
            .fetch_and_upload(po)
            .map_err(err("fetch and upload"))?;
        let transfer = started.elapsed();
        self.swt_sc
            .request_payment(po)
            .map_err(fab("request payment"))?;
        self.buyer
            .record_payment(po)
            .map_err(fab("record payment"))?;
        Ok((remote.data, transfer))
    }

    /// [`Bed::trade`] as traced operation `op`, each submit split into the
    /// public calls `Gateway::submit` makes. Afterwards, off the traced
    /// operation, runs the CMDAC's `ValidateProof` read-only on one SWT
    /// peer. Returns the uploaded B/L, the time of the traced operation
    /// and the time of that check.
    pub fn traced_trade(
        &self,
        op: u64,
        input: &TradeInput,
    ) -> Result<(Vec<u8>, Duration, Duration), String> {
        let po = input.po.as_bytes().to_vec();
        let [stl_seller, stl_carrier, swt_buyer, swt_sc] = &self.gateways;
        let (stl, swt, dac) = (&STL_ROLE, &SWT_ROLE, &DAC_ROLE);
        let started = Instant::now();
        let remote = spans::traced_op(op, "trade", || -> Result<RemoteData, String> {
            let lc_id = format!("LC-{}", input.po).into_bytes();
            let bl = bl_id(&input.po).into_bytes();
            let amount = input.amount.to_string().into_bytes();
            let tl = StlChaincode::NAME;
            let wt = SwtChaincode::NAME;
            let goods = input.goods.as_bytes().to_vec();
            split_submit(
                stl,
                stl_seller,
                tl,
                "CreateShipment",
                vec![po.clone(), goods],
            )?;
            split_submit(stl, stl_carrier, tl, "ConfirmBooking", vec![po.clone()])?;
            split_submit(stl, stl_seller, tl, "TransferPossession", vec![po.clone()])?;
            split_submit(
                stl,
                stl_carrier,
                tl,
                "IssueBillOfLading",
                vec![po.clone(), bl],
            )?;
            let lc_args = vec![po.clone(), lc_id, BUYER.into(), SELLER.into(), amount];
            split_submit(swt, swt_buyer, wt, "RequestLC", lc_args)?;
            split_submit(swt, swt_buyer, wt, "IssueLC", vec![po.clone()])?;
            let remote = spans::span("transfer", || -> Result<RemoteData, String> {
                let remote = spans::span("query", || self.split_query(&input.po))?;
                let args = vec![po.clone(), remote.data.clone(), remote.proof_bytes()];
                split_submit(dac, swt_sc, wt, "UploadDispatchDocs", args)?;
                Ok(remote)
            })?;
            split_submit(swt, swt_sc, wt, "RequestPayment", vec![po.clone()])?;
            split_submit(swt, swt_buyer, wt, "RecordPayment", vec![po.clone()])?;
            Ok(remote)
        })?;
        let took = started.elapsed();
        // The upload consumed the proof's nonce, so the off-path check
        // runs on a fresh proof of the same B/L.
        let fresh = self.query(&input.po)?;
        let args = vec![
            b"stl".to_vec(),
            BL_ADDRESS.as_bytes().to_vec(),
            fresh.proof_bytes(),
        ];
        let started = Instant::now();
        swt_sc
            .query(CMDAC_NAME, "ValidateProof", args)
            .map_err(|e| format!("off-path ValidateProof: {e}"))?;
        Ok((remote.data, took, started.elapsed()))
    }

    /// Stops the TCP relay server, if any; dropping it joins its threads.
    pub fn shutdown(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// Span names for one kind of submit.
struct Role {
    submit: &'static str,
    endorse: &'static str,
    order: &'static str,
}

const STL_ROLE: Role = Role {
    submit: "stl.submit",
    endorse: "stl.endorse",
    order: "stl.order",
};
const SWT_ROLE: Role = Role {
    submit: "swt.submit",
    endorse: "swt.endorse",
    order: "swt.order",
};
const DAC_ROLE: Role = Role {
    submit: "dac.submit",
    endorse: "dac.endorse",
    order: "dac.order",
};

/// `Gateway::submit` split into its public calls: build and sign the
/// proposal, `FabricNetwork::endorse`, then `order`/`cut_block` (which
/// validate and commit on every peer). Fails unless the transaction
/// commits as valid.
fn split_submit(
    role: &Role,
    gateway: &Gateway,
    chaincode: &str,
    function: &str,
    args: Vec<Vec<u8>>,
) -> Result<(), String> {
    spans::span(role.submit, || {
        let net = gateway.network();
        let identity = gateway.identity();
        let orgs = net
            .policy_of(chaincode)
            .and_then(|p| p.minimal_org_set())
            .ok_or_else(|| format!("{chaincode}: no satisfiable endorsement policy"))?;
        let proposal = spans::span("fabric.propose", || {
            Proposal::new(
                net.next_txid(),
                net.channel(),
                chaincode,
                function,
                args,
                identity.certificate().clone(),
            )
            .sign(identity.signing_key())
        });
        let (sim, endorsements) = spans::span(role.endorse, || net.endorse(&proposal, &orgs))
            .map_err(|e| format!("{function}: endorse: {e}"))?;
        let envelope = TransactionEnvelope {
            txid: proposal.txid.clone(),
            channel: net.channel().to_string(),
            chaincode: chaincode.to_string(),
            result: sim.result,
            rwset: sim.rwset,
            endorsements,
            creator_cert: identity.certificate().clone(),
        };
        let (block, codes) = spans::span(role.order, || match net.order(&envelope)? {
            Some(committed) => Ok(Some(committed)),
            None => net.cut_block(),
        })
        .map_err(|e| format!("{function}: order: {e}"))?
        .ok_or_else(|| format!("{function}: the orderer cut no block"))?;
        // Find the transaction's validation code the way the gateway does:
        // by its position in the committed block on the first peer.
        let (_, peer) = net.peers().next().ok_or("network has no peers")?;
        let position = peer
            .read()
            .store()
            .block(block)
            .map_err(|e| format!("{function}: committed block: {e}"))?
            .transactions
            .iter()
            .position(|tx| {
                TransactionEnvelope::decode_from_slice(tx).is_ok_and(|e| e.txid == proposal.txid)
            });
        match position.and_then(|i| codes.get(i)) {
            Some(code) if code.is_valid() => Ok(()),
            other => Err(format!("{function}: committed as {other:?}")),
        }
    })
}

pub fn height(net: &FabricNetwork) -> u64 {
    net.peers()
        .next()
        .map_or(0, |(_, peer)| peer.read().height())
}

/// Encoded size of blocks `from..to` on the network's first peer.
pub fn ledger_bytes(net: &FabricNetwork, from: u64, to: u64) -> Result<u64, String> {
    let (_, peer) = net.peers().next().ok_or("network has no peers")?;
    let peer = peer.read();
    (from..to)
        .map(|n| {
            peer.store()
                .block(n)
                .map(|b| encode_block(b).len() as u64)
                .map_err(|e| format!("block {n}: {e}"))
        })
        .sum()
}

/// A query result must be the B/L issued for `po`, attested once by each
/// STL organization.
pub fn check_bl(remote: &RemoteData, po: &str) -> Result<BillOfLading, String> {
    let bl = BillOfLading::decode_from_slice(&remote.data)
        .map_err(|e| format!("{po}: result is not a B/L: {e}"))?;
    if bl.po_ref != po || bl.bl_id != bl_id(po) {
        return Err(format!("{po}: got B/L {} for {}", bl.bl_id, bl.po_ref));
    }
    if remote.proof.result != remote.data {
        return Err(format!("{po}: proof covers other bytes than the result"));
    }
    let mut orgs = remote
        .proof
        .attestations
        .iter()
        .map(|a| {
            decode_certificate(&a.signer_cert)
                .map(|c| c.subject().organization.clone())
                .map_err(|e| format!("{po}: attestation certificate: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    orgs.sort();
    if orgs != ["carrier-org", "seller-org"] {
        return Err(format!("{po}: proof attested by {orgs:?}"));
    }
    Ok(bl)
}

/// A trade's uploaded B/L must be the one issued for its PO and goods.
pub fn check_trade_bl(bl_bytes: &[u8], input: &TradeInput) -> Result<(), String> {
    let bl = BillOfLading::decode_from_slice(bl_bytes)
        .map_err(|e| format!("{}: uploaded B/L undecodable: {e}", input.po))?;
    if bl.po_ref != input.po || bl.bl_id != bl_id(&input.po) || bl.goods != input.goods {
        return Err(format!("{}: uploaded B/L is {bl:?}", input.po));
    }
    Ok(())
}

/// The L/C for `po` as stored on every SWT peer; all must agree.
fn lc_on_every_peer(net: &FabricNetwork, po: &str) -> Result<LetterOfCredit, String> {
    let key = format!("lc:{po}");
    let mut seen: Option<LetterOfCredit> = None;
    for (name, peer) in net.peers() {
        let peer = peer.read();
        let value = peer
            .state()
            .get(SwtChaincode::NAME, &key)
            .ok_or_else(|| format!("{name} holds no L/C for {po}"))?;
        let lc = LetterOfCredit::decode_from_slice(&value.value)
            .map_err(|e| format!("{name}: L/C for {po} undecodable: {e}"))?;
        match &seen {
            Some(first) if *first != lc => return Err(format!("{name} disagrees on {po}'s L/C")),
            Some(_) => {}
            None => seen = Some(lc),
        }
    }
    seen.ok_or_else(|| "SWT has no peers".into())
}

/// Every traded L/C reads `Paid` on every SWT peer and holds the B/L the
/// trade uploaded.
pub fn check_paid(bed: &Bed, trades: &[(String, Vec<u8>)]) -> Result<(), String> {
    for (po, bl) in trades {
        let lc = lc_on_every_peer(&bed.t.swt, po)?;
        if lc.status != LcStatus::Paid || lc.bl != *bl {
            return Err(format!("{po}: L/C is {:?} with other B/L bytes", lc.status));
        }
    }
    Ok(())
}

/// Replicas agree and every peer's chain verifies, on both networks.
pub fn check_ledgers(bed: &Bed) -> Result<(), String> {
    for net in [&bed.t.stl, &bed.t.swt] {
        net.check_replica_consistency()
            .map_err(|e| format!("{}: {e}", net.name()))?;
        for (name, peer) in net.peers() {
            peer.read()
                .store()
                .verify_chain()
                .map_err(|e| format!("{name}: chain does not verify: {e}"))?;
        }
    }
    Ok(())
}

/// Three things the protocol must refuse, tried once after the timed
/// phase: a step-10 proof whose B/L has one byte flipped, a proof for one
/// PO submitted against another PO's L/C, and a query from an SWT
/// identity the exposure rule does not cover.
pub fn check_rejections(bed: &Bed) -> Result<(), String> {
    let (a, b) = ("PO-CHECK-A", "PO-CHECK-B");
    for po in [a, b] {
        issue_sample_bl(&bed.t, po);
        bed.buyer
            .request_lc(po, &format!("LC-{po}"), BUYER, SELLER, 1_000)
            .and_then(|()| bed.buyer.issue_lc(po))
            .map_err(|e| format!("{po}: open L/C: {e}"))?;
    }
    let remote = bed.query(a)?;
    check_bl(&remote, a)?;

    // Flip a byte inside the goods text, so the B/L still decodes and
    // still names PO A: only the proof check can refuse it.
    let mut forged = remote.clone();
    let goods = b"600 tulip bulbs";
    let at = forged
        .data
        .windows(goods.len())
        .position(|w| w == goods)
        .ok_or("B/L does not carry the issued goods text")?;
    forged.data[at] ^= 0x01;
    forged.proof.result = forged.data.clone();
    if bed.swt_sc.upload_dispatch_docs(a, &forged).is_ok() {
        return Err("step 10 accepted a proof whose B/L had a flipped byte".into());
    }
    if bed.swt_sc.upload_dispatch_docs(b, &remote).is_ok() {
        return Err(format!("step 10 accepted {a}'s proof against {b}'s L/C"));
    }
    for po in [a, b] {
        let lc = lc_on_every_peer(&bed.t.swt, po)?;
        if lc.status != LcStatus::Issued || !lc.bl.is_empty() {
            return Err(format!("{po}: a rejected upload changed the L/C"));
        }
    }

    let outsider = bed
        .t
        .swt
        .register_client("buyer-bank-org", "bench-outsider", true)
        .map_err(|e| format!("enroll outsider: {e}"))?;
    let gateway = Gateway::new(Arc::clone(&bed.t.swt), outsider);
    let client = InteropClient::new(gateway, Arc::clone(&bed.relay));
    match client.query_remote(bl_address(a), bl_policy()) {
        Err(InteropError::AccessDenied(_)) => Ok(()),
        Err(e) => Err(format!(
            "uncovered identity: expected access denied, got {e}"
        )),
        Ok(_) => Err("a query from an identity outside the exposure rule was answered".into()),
    }
}
