//! Wrappers the benchmark puts around two of the program's public
//! traits, so the relay hop can be counted and timed from outside.

use crate::spans;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tdt_relay::driver::NetworkDriver;
use tdt_relay::transport::RelayTransport;
use tdt_relay::RelayError;
use tdt_wire::codec::Message;
use tdt_wire::messages::{Query, QueryResponse, RelayEnvelope};

/// A [`RelayTransport`] that counts the encoded bytes of every request
/// and reply envelope, and times each send as `transport.send`.
pub struct CountingTransport {
    inner: Arc<dyn RelayTransport>,
    bytes: AtomicU64,
}

impl CountingTransport {
    pub fn new(inner: Arc<dyn RelayTransport>) -> Self {
        CountingTransport {
            inner,
            bytes: AtomicU64::new(0),
        }
    }

    /// Envelope bytes sent and received so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn count(&self, envelope: &RelayEnvelope) {
        let len = envelope.encode_to_vec().len() as u64;
        self.bytes.fetch_add(len, Ordering::Relaxed);
    }
}

impl RelayTransport for CountingTransport {
    fn send(&self, endpoint: &str, envelope: &RelayEnvelope) -> Result<RelayEnvelope, RelayError> {
        self.count(envelope);
        let reply = spans::carrier_span("transport.send", || self.inner.send(endpoint, envelope))?;
        self.count(&reply);
        Ok(reply)
    }
}

/// A [`NetworkDriver`] that times the wrapped driver as `driver.execute`
/// (Fig. 2 steps 5-7), parented on the transport span that carried the
/// query.
pub struct TimedDriver<D> {
    inner: D,
}

impl<D: NetworkDriver> TimedDriver<D> {
    pub fn new(inner: D) -> Self {
        TimedDriver { inner }
    }
}

impl<D: NetworkDriver> NetworkDriver for TimedDriver<D> {
    fn network_id(&self) -> &str {
        self.inner.network_id()
    }

    fn execute_query(&self, query: &Query) -> Result<QueryResponse, RelayError> {
        spans::remote_span("driver.execute", &query.request_id, || {
            self.inner.execute_query(query)
        })
    }
}
