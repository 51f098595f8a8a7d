//! The deployment under test, in one process: a `BrokerServer` on
//! loopback, a fixed `SyncService` pool over mqsim, a durable 8-shard
//! `ShardedStore`, an instant `SwiftStore`, and `DesktopClient`s behind
//! two `NetBroker` connections (writers share one, peers the other).

use crate::trace::{TracedBackend, TracedMessaging, TracedStore};
use metadata::{DurableRecovery, MetadataStore, ShardedStore, WorkspaceId};
use mqsim::{MessageBroker, Messaging};
use net::{BrokerServer, NetBroker};
use objectmq::{Broker, BrokerConfig, ServerHandle};
use stacksync::{ClientConfig, DesktopClient, SyncService, SyncServiceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{LatencyModel, MemoryBackend, ObjectBackend, SwiftStore};

/// Metadata shards of the durable store.
pub const SHARDS: usize = 8;
/// SyncService instances bound to the request queue.
pub const POOL: usize = 4;
/// Transaction latency of the metadata store: none is modelled.
pub const TXN_LATENCY: Duration = Duration::ZERO;
/// Sync policy of the store's WALs. The WAL lives in the checkout, and a
/// disk-backed filesystem's `fdatasync` stalls for tens to hundreds of
/// milliseconds whenever other tenants of the disk write, which would time
/// the disk rather than the stack. On tmpfs an fsync costs nothing; writing
/// without one is the nearest the checkout allows. A simulated crash still
/// loses nothing written, as a process kill would not.
pub const WAL_SYNC: wal::SyncPolicy = wal::SyncPolicy::Never;

/// One workspace with its writer and peer device.
pub struct Workspace {
    pub id: WorkspaceId,
    pub user: String,
    pub writer: Arc<DesktopClient>,
    pub peer: Arc<DesktopClient>,
}

/// What reopening the durable store cost.
pub struct Reopen {
    pub open_s: f64,
    pub recovery: DurableRecovery,
}

pub struct Deployment {
    pub traced: bool,
    dir: PathBuf,
    pub mq: MessageBroker,
    server: Option<BrokerServer>,
    server_broker: Broker,
    store: Option<Arc<ShardedStore>>,
    meta: Option<Arc<dyn MetadataStore>>,
    pool: Vec<ServerHandle>,
    pub storage: SwiftStore,
    pub backend: Arc<dyn ObjectBackend>,
    writer_net: NetBroker,
    peer_net: NetBroker,
    pub writer_broker: Broker,
    pub peer_broker: Broker,
    pub workspaces: Vec<Workspace>,
}

/// Checks that nothing in the deployment models a delay, and describes
/// the settings for the provenance record.
pub fn no_modelled_delay() -> Result<String, String> {
    let latency = LatencyModel::instant();
    if latency
        != (LatencyModel {
            rtt: Duration::ZERO,
            upload_bps: 0,
            download_bps: 0,
        })
    {
        return Err("LatencyModel::instant models a delay".into());
    }
    let service = SyncServiceConfig::default();
    if !service.service_delay.is_zero() {
        return Err("SyncService service_delay is not zero".into());
    }
    if !TXN_LATENCY.is_zero() {
        return Err("metadata transaction latency is not zero".into());
    }
    // Every device runs the paper's defaults: fixed 512 KB chunks, LZSS,
    // SHA-1, one ingest worker, 1500 ms / 5 retries.
    let c = ClientConfig::new("u", "d");
    Ok(format!(
        "storage=LatencyModel::instant service_delay=0 txn_latency=0 client=default(chunking={:?},compression={:?},fingerprint={},ingest_workers={},call_timeout_ms={},call_retries={})",
        c.chunking,
        c.compression,
        c.fingerprint.name(),
        c.ingest_workers,
        c.call_timeout.as_millis(),
        c.call_retries
    ))
}

fn broker_over(
    inner: Arc<dyn Messaging>,
    traced: bool,
    publish: &'static str,
    handle: &'static str,
) -> Broker {
    let mq = if traced {
        TracedMessaging::wrap(inner, publish, handle)
    } else {
        inner
    };
    Broker::over(mq, BrokerConfig::default())
}

impl Deployment {
    /// Brings the stack up with `workspaces` users, each owning one
    /// workspace with a connected writer and peer device.
    pub fn start(dir: &Path, workspaces: usize, traced: bool) -> Result<Deployment, String> {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mq = MessageBroker::new();
        let server = BrokerServer::bind("127.0.0.1:0", mq.clone())
            .map_err(|e| format!("binding broker server: {e}"))?;
        let addr = server.local_addr();
        let server_broker = broker_over(
            Arc::new(mq.clone()),
            traced,
            "mqsim.publish",
            "objectmq.handle",
        );

        let memory: Arc<dyn ObjectBackend> = Arc::new(MemoryBackend::new());
        let backend: Arc<dyn ObjectBackend> = if traced {
            Arc::new(TracedBackend { inner: memory })
        } else {
            memory
        };
        let storage = SwiftStore::with_backend(LatencyModel::instant(), backend.clone());

        let writer_net = NetBroker::connect(addr).map_err(|e| format!("writer connection: {e}"))?;
        let peer_net = NetBroker::connect(addr).map_err(|e| format!("peer connection: {e}"))?;
        let writer_broker = broker_over(
            Arc::new(writer_net.clone()),
            traced,
            "net.publish",
            "sync.confirm",
        );
        let peer_broker = broker_over(
            Arc::new(peer_net.clone()),
            traced,
            "net.publish",
            "sync.apply",
        );

        let mut d = Deployment {
            traced,
            dir: dir.to_path_buf(),
            mq,
            server: Some(server),
            server_broker,
            store: None,
            meta: None,
            pool: Vec::new(),
            storage,
            backend,
            writer_net,
            peer_net,
            writer_broker,
            peer_broker,
            workspaces: Vec::new(),
        };
        d.reopen()?;
        d.bind_pool()?;
        let meta = d.meta.clone().expect("store opened above");
        for i in 0..workspaces {
            let user = format!("user{i:03}");
            let id = stacksync::provision_user(meta.as_ref(), &user, "home")
                .map_err(|e| format!("provisioning {user}: {e}"))?;
            let writer = DesktopClient::connect(
                &d.writer_broker,
                &d.storage,
                ClientConfig::new(&user, "writer"),
                &id,
            )
            .map_err(|e| format!("connecting writer of {user}: {e}"))?;
            let peer = DesktopClient::connect(
                &d.peer_broker,
                &d.storage,
                ClientConfig::new(&user, "peer"),
                &id,
            )
            .map_err(|e| format!("connecting peer of {user}: {e}"))?;
            d.workspaces.push(Workspace {
                id,
                user,
                writer: Arc::new(writer),
                peer: Arc::new(peer),
            });
        }
        Ok(d)
    }

    fn meta_dir(&self) -> PathBuf {
        self.dir.join("meta")
    }

    /// The durable store (panics while crashed: a harness bug).
    pub fn store(&self) -> &Arc<ShardedStore> {
        self.store.as_ref().expect("store is open")
    }

    /// The store as the services see it (decorated when traced).
    pub fn meta(&self) -> &Arc<dyn MetadataStore> {
        self.meta.as_ref().expect("store is open")
    }

    /// Path of the checkpoint file.
    pub fn snapshot_path(&self) -> PathBuf {
        self.meta_dir().join("snapshot.json")
    }

    /// Opens (or recovers) the durable store.
    pub fn reopen(&mut self) -> Result<Reopen, String> {
        let started = Instant::now();
        let (store, recovery) = ShardedStore::open_durable(
            self.meta_dir(),
            SHARDS,
            TXN_LATENCY,
            wal::LogConfig {
                sync: WAL_SYNC,
                ..wal::LogConfig::named("perfbench-meta")
            },
        )
        .map_err(|e| format!("opening durable store: {e}"))?;
        let open_s = started.elapsed().as_secs_f64();
        let store = Arc::new(store);
        let plain: Arc<dyn MetadataStore> = store.clone();
        self.meta = Some(if self.traced {
            Arc::new(TracedStore { inner: plain })
        } else {
            plain
        });
        self.store = Some(store);
        Ok(Reopen { open_s, recovery })
    }

    /// Binds the fixed SyncService pool over the current store.
    pub fn bind_pool(&mut self) -> Result<(), String> {
        let service = SyncService::builder(&self.server_broker)
            .store(self.meta().clone())
            .build();
        for _ in 0..POOL {
            self.pool.push(
                service
                    .bind(&self.server_broker)
                    .map_err(|e| format!("binding service: {e}"))?,
            );
        }
        Ok(())
    }

    /// Kills the service pool without acknowledging in-flight work, crashes
    /// every WAL of the store (unwritten bytes are lost) and drops it.
    pub fn crash(&mut self) {
        for h in self.pool.drain(..) {
            h.kill();
        }
        if let Some(store) = self.store.take() {
            store.wal_simulate_crash(0);
        }
        self.meta = None;
    }

    /// Checkpoints the durable store.
    pub fn checkpoint(&self) -> Result<(), String> {
        self.store()
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))
    }

    /// Service statistics summed over the pool: (processed, mean service
    /// s, mean response s).
    pub fn pool_stats(&self) -> (u64, f64, f64) {
        let (mut n, mut service, mut response) = (0u64, 0.0, 0.0);
        for h in &self.pool {
            let s = h.stats().snapshot();
            n += s.processed;
            service += s.mean_service_time.as_secs_f64() * s.processed as f64;
            response += s.mean_response_time.as_secs_f64() * s.processed as f64;
        }
        if n == 0 {
            return (0, 0.0, 0.0);
        }
        (n, service / n as f64, response / n as f64)
    }

    pub fn reset_pool_stats(&self) {
        for h in &self.pool {
            h.stats().reset();
        }
    }

    /// TCP connections the broker server holds.
    pub fn live_connections(&self) -> usize {
        self.server
            .as_ref()
            .map_or(0, BrokerServer::live_connections)
    }

    /// Tears everything down and removes the state directory.
    pub fn shutdown(mut self) {
        // Dropping clients signals their listener threads; closing the
        // connections wakes them at once.
        self.workspaces.clear();
        for h in self.pool.drain(..) {
            h.shutdown();
        }
        self.writer_net.close();
        self.peer_net.close();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.meta = None;
        self.store = None;
        std::fs::remove_dir_all(&self.dir).ok();
    }
}
