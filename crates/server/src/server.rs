//! The TCP query server: a [`TemporalVideoQueryEngine`] plus a
//! [`SubscriptionHub`] behind a mutex, served thread-per-connection.
//!
//! # Command language
//!
//! Each request frame carries one command; each response frame starts with
//! `OK` or `ERR`:
//!
//! | command | effect |
//! |---|---|
//! | `ADD <cnf text>` | register a query, minting the next free id |
//! | `REMOVE <qid>` | cancel a query (its verdicts vanish immediately) |
//! | `SUBSCRIBE [cap=<n>] [<qid>...]` | register a match subscriber; no ids = all queries |
//! | `UNSUBSCRIBE <sub>` | drop a subscriber and its queue |
//! | `FRAME <fid> [<id>:<label>...] [END <id>,...]` | ingest one frame; `END` ids are track ends |
//! | `POLL <sub> [max]` | take up to `max` queued match events, as many as fit one frame; the rest stay queued |
//! | `STATS` | catalog version, counters, strategy |
//! | `SHUTDOWN` | flush + fsync durable state, then stop the server |
//! | `PING` / `QUIT` | liveness / close |
//!
//! The engine serves one frame stream (one camera per server process; the
//! in-process [`MultiFeedEngine`](tvq_engine::MultiFeedEngine) is the
//! embedded many-camera path), so `FRAME` takes a frame id, not a feed id.
//! Detections use class *labels*; labels no registered query mentions are
//! counted as `ignored` rather than rejected, mirroring the engine's own
//! relevant-class filter.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use tvq_common::{Error, FeedId, FrameId, FrameObjects, ObjectId, Result};
use tvq_engine::{
    EngineConfig, SubscriberId, Subscription, SubscriptionHub, TemporalVideoQueryEngine,
};
use tvq_store::{RealIo, SharedIo};

use crate::protocol::{read_frame_bytes, write_frame, MAX_FRAME_LEN};

/// Everything a connection needs to serve a command. One mutex guards the
/// whole state: commands are short (the per-frame engine work dominates)
/// and a single lock keeps `FRAME` ingest and `publish` atomic, so
/// subscribers never observe a frame's matches torn across polls.
struct ServerState {
    engine: TemporalVideoQueryEngine,
    hub: SubscriptionHub,
}

impl ServerState {
    fn new(engine: TemporalVideoQueryEngine) -> Self {
        ServerState {
            engine,
            hub: SubscriptionHub::new(),
        }
    }

    /// Executes one command line, returning the response payload. Keeping
    /// this free of socket types makes the whole command surface testable
    /// in-process.
    fn execute(&mut self, line: &str) -> String {
        self.try_execute(line)
            .unwrap_or_else(|err| format!("ERR {err}"))
    }

    fn try_execute(&mut self, line: &str) -> Result<String> {
        let trimmed = line.trim();
        let (verb, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((verb, rest)) => (verb, rest.trim()),
            None => (trimmed, ""),
        };
        match verb.to_ascii_uppercase().as_str() {
            "ADD" => self.add(rest),
            "REMOVE" => self.remove(rest),
            "SUBSCRIBE" => self.subscribe(rest),
            "UNSUBSCRIBE" => self.unsubscribe(rest),
            "FRAME" => self.frame(rest),
            "POLL" => self.poll(rest),
            "STATS" => Ok(self.stats()),
            "PING" => Ok("OK pong".to_string()),
            "QUIT" => Ok("OK bye".to_string()),
            "" => Err(Error::InvalidConfig("empty command".to_string())),
            other => Err(Error::InvalidConfig(format!("unknown command {other:?}"))),
        }
    }

    fn add(&mut self, text: &str) -> Result<String> {
        if text.is_empty() {
            return Err(Error::InvalidConfig("ADD needs a query".to_string()));
        }
        let id = self.engine.add_query_text(text)?;
        Ok(format!(
            "OK id={} version={}",
            id.0,
            self.engine.catalog_version()
        ))
    }

    fn remove(&mut self, rest: &str) -> Result<String> {
        let id: u32 = parse(rest, "REMOVE needs a query id")?;
        self.engine.remove_query(tvq_common::QueryId(id))?;
        self.hub.retract_query(tvq_common::QueryId(id));
        Ok(format!(
            "OK removed={} version={}",
            id,
            self.engine.catalog_version()
        ))
    }

    fn subscribe(&mut self, rest: &str) -> Result<String> {
        let mut capacity = 64usize;
        let mut filter = tvq_common::FxHashSet::default();
        for token in rest.split_whitespace() {
            if let Some(cap) = token.strip_prefix("cap=") {
                capacity = parse(cap, "bad capacity")?;
            } else {
                filter.insert(tvq_common::QueryId(parse(token, "bad query id")?));
            }
        }
        let filter = (!filter.is_empty()).then_some(filter);
        let sub = self.hub.subscribe(capacity, filter);
        Ok(format!("OK sub={}", sub.0))
    }

    fn unsubscribe(&mut self, rest: &str) -> Result<String> {
        let id: u64 = parse(rest, "UNSUBSCRIBE needs a subscriber id")?;
        self.hub.unsubscribe(SubscriberId(id))?;
        Ok(format!("OK unsubscribed={id}"))
    }

    fn frame(&mut self, rest: &str) -> Result<String> {
        let mut tokens = rest.split_whitespace();
        let fid: u64 = parse(tokens.next().unwrap_or(""), "FRAME needs a frame id")?;
        let mut detections = Vec::new();
        let mut ends = Vec::new();
        let mut ignored = 0usize;
        let mut in_ends = false;
        for token in tokens {
            if token.eq_ignore_ascii_case("END") {
                in_ends = true;
                continue;
            }
            if in_ends {
                for id in token.split(',').filter(|s| !s.is_empty()) {
                    ends.push(ObjectId(parse(id, "bad END object id")?));
                }
            } else {
                let (id, label) = token.split_once(':').ok_or_else(|| {
                    Error::InvalidConfig(format!("bad detection {token:?} (want <id>:<label>)"))
                })?;
                let object = ObjectId(parse(id, "bad object id")?);
                match self.engine.registry().id(label) {
                    Some(class) => detections.push((object, class)),
                    // A label no query has ever mentioned cannot influence
                    // any match; count it instead of failing ingest.
                    None => ignored += 1,
                }
            }
        }
        let frame = FrameObjects::new(FrameId(fid), detections).with_track_ends(ends);
        let result = self.engine.observe(&frame)?;
        let events = self.hub.publish(FeedId(0), result.frame, &result.matches);
        Ok(format!(
            "OK frame={} matches={} events={} ignored={}",
            fid,
            result.matches.len(),
            events,
            ignored
        ))
    }

    /// Formats the subscriber's queued events in place until `max`, the
    /// queue's end, or an event that would push the reply past
    /// [`MAX_FRAME_LEN`], then takes exactly the formatted ones from the
    /// hub: the rest stay queued, and `remaining=` counts them.
    fn poll(&mut self, rest: &str) -> Result<String> {
        let mut tokens = rest.split_whitespace();
        let sub = SubscriberId(parse(
            tokens.next().unwrap_or(""),
            "POLL needs a subscriber id",
        )?);
        let max = match tokens.next() {
            Some(raw) => parse(raw, "bad POLL max")?,
            None => usize::MAX,
        };
        self.hub.poll(sub, 0)?; // rejects an unknown subscriber
        let subscription = self.hub.subscription(sub);
        let (queued, dropped) = subscription.map_or((0, 0), |s| (s.queued(), s.dropped()));
        let header = |events: usize| {
            let remaining = queued - events;
            format!("OK events={events} dropped={dropped} remaining={remaining}")
        };
        let (mut events, mut lines) = (0, String::new());
        for event in (subscription.into_iter().flat_map(Subscription::events)).take(max) {
            let objects: Vec<String> = (event.matched.objects.iter())
                .map(|o| o.0.to_string())
                .collect();
            let line = format!(
                "\nEVENT seq={} frame={} query={} objects={}",
                event.seq,
                event.frame.0,
                event.matched.query.0,
                objects.join(",")
            );
            if header(events + 1).len() + lines.len() + line.len() > MAX_FRAME_LEN {
                break;
            }
            lines.push_str(&line);
            events += 1;
        }
        self.hub.poll(sub, events)?;
        Ok(header(events) + &lines)
    }

    fn stats(&self) -> String {
        let metrics = self.engine.metrics();
        format!(
            "OK version={} queries={} strategy={} frames={} matches={} subscribers={} published={} dropped={} tracks_ended={} recoveries={}",
            self.engine.catalog_version(),
            self.engine.queries().len(),
            self.engine.strategy(),
            metrics.frames_processed,
            self.engine.match_counters().0,
            self.hub.len(),
            self.hub.published(),
            self.hub.total_dropped(),
            metrics.tracks_ended,
            metrics.recoveries,
        )
    }
}

fn parse<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T> {
    raw.trim()
        .parse()
        .map_err(|_| Error::InvalidConfig(format!("{what}: {raw:?}")))
}

/// State every connection thread shares: the engine behind its mutex, the
/// stop flag, and the bound address (used to poke the accept loop awake
/// after an in-band `SHUTDOWN`).
struct Shared {
    state: Mutex<ServerState>,
    stopping: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    /// Flushes the engine's durable state (due snapshot + WAL fsync). A
    /// no-op for a server without a data directory.
    fn sync(&self) -> Result<()> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .engine
            .sync_store()
    }
}

/// A bound, not-yet-serving query server. [`spawn`](Self::spawn) starts the
/// accept loop on a background thread and returns a [`ServerHandle`] for
/// orderly shutdown — the shape both the binary and the smoke tests use.
pub struct QueryServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl QueryServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) around an engine
    /// built from `config` with an initially empty query catalog — clients
    /// register queries with `ADD`.
    pub fn bind(addr: impl ToSocketAddrs, config: EngineConfig) -> Result<Self> {
        let engine = TemporalVideoQueryEngine::builder(config)
            .allow_empty_catalog()
            .build()?;
        Self::bind_engine(addr, engine)
    }

    /// Binds a *durable* server over `dir` on the real filesystem: a fresh
    /// directory starts an empty engine with durability attached, a
    /// directory holding engine data is recovered (snapshot + WAL replay),
    /// resuming the catalog and windows the previous process acknowledged.
    pub fn bind_durable(
        addr: impl ToSocketAddrs,
        config: EngineConfig,
        dir: &Path,
    ) -> Result<Self> {
        Self::bind_with_store(addr, config, RealIo::shared(), dir)
    }

    /// [`bind_durable`](Self::bind_durable) over an injectable
    /// [`StoreIo`](tvq_store::StoreIo) — the testable seam (the restart
    /// tests run against a [`MemDisk`](tvq_store::MemDisk)).
    pub fn bind_with_store(
        addr: impl ToSocketAddrs,
        config: EngineConfig,
        io: SharedIo,
        dir: &Path,
    ) -> Result<Self> {
        let engine = if TemporalVideoQueryEngine::has_data(&io, dir) {
            TemporalVideoQueryEngine::recover(io, dir)?.0
        } else {
            let mut engine = TemporalVideoQueryEngine::builder(config)
                .allow_empty_catalog()
                .build()?;
            engine.attach_durability(io, dir)?;
            engine
        };
        Self::bind_engine(addr, engine)
    }

    fn bind_engine(addr: impl ToSocketAddrs, engine: TemporalVideoQueryEngine) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(QueryServer {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(ServerState::new(engine)),
                stopping: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The bound address (resolves the actual port after binding to 0).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs the accept loop on the calling thread until an in-band
    /// `SHUTDOWN` (the serve mode of the `tvq-server` binary; tests use
    /// [`spawn`](Self::spawn)). Durable state is flushed and fsynced
    /// before returning.
    pub fn run(self) -> Result<()> {
        accept_loop(self.listener, &self.shared);
        self.shared.sync()
    }

    /// Starts the accept loop on a background thread.
    pub fn spawn(self) -> Result<ServerHandle> {
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::Builder::new()
            .name("tvq-server-accept".to_string())
            .spawn(move || accept_loop(self.listener, &self.shared))
            .map_err(Error::Io)?;
        Ok(ServerHandle {
            shared,
            thread: Some(thread),
        })
    }
}

/// Hands every accepted connection its own thread until the stop flag is
/// observed (whoever sets it pokes the listener awake with a throwaway
/// connection).
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("tvq-server-conn".to_string())
            .spawn(move || serve_connection(stream, &shared));
    }
}

/// Serves one client connection until `QUIT`, `SHUTDOWN`, EOF, or an I/O
/// error.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    // A response is one write (see `write_frame`); without Nagle it leaves
    // at once instead of waiting out the peer's delayed ACK.
    let Ok(clone) = stream.set_nodelay(true).and_then(|()| stream.try_clone()) else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut writer = stream;
    while let Ok(Some(payload)) = read_frame_bytes(&mut reader) {
        // A frame that is not UTF-8 is a malformed *command*, not a broken
        // *connection*: the framing layer already consumed the whole
        // payload, so reply ERR and resynchronise on the next frame
        // boundary instead of hanging up on the client.
        let Ok(line) = String::from_utf8(payload) else {
            if write_frame(&mut writer, "ERR command is not valid UTF-8").is_err() {
                break;
            }
            continue;
        };
        let trimmed = line.trim();
        let quit = trimmed.eq_ignore_ascii_case("QUIT");
        // SHUTDOWN is handled here, not in `execute`: it spans the whole
        // server (flush durable state, stop the accept loop), not just the
        // engine. The stop flag is only set once the flush succeeded — a
        // failing disk leaves the server up and the client told.
        let shutdown = trimmed.eq_ignore_ascii_case("SHUTDOWN");
        let response = if shutdown {
            match shared.sync() {
                Ok(()) => {
                    shared.stopping.store(true, Ordering::SeqCst);
                    "OK shutdown".to_string()
                }
                Err(err) => format!("ERR {err}"),
            }
        } else {
            shared
                .state
                .lock()
                // A panic mid-command can only poison between commands'
                // atomic units; the state is still internally consistent.
                .unwrap_or_else(PoisonError::into_inner)
                .execute(&line)
        };
        let stopping = shutdown && shared.stopping.load(Ordering::SeqCst);
        if write_frame(&mut writer, &response).is_err() || quit || stopping {
            if stopping {
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect(shared.addr);
            }
            break;
        }
    }
}

/// A running server: its address plus the means to stop it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stops the accept loop (in-flight connections finish their current
    /// command), joins the accept thread, and flushes + fsyncs durable
    /// state — the programmatic equivalent of the in-band `SHUTDOWN`.
    pub fn stop(mut self) -> Result<()> {
        self.halt();
        self.shared.sync()
    }

    fn halt(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.halt();
            let _ = self.shared.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_common::WindowSpec;

    fn state() -> ServerState {
        let config = EngineConfig::new(WindowSpec::new(3, 2).unwrap());
        let engine = TemporalVideoQueryEngine::builder(config)
            .allow_empty_catalog()
            .build()
            .unwrap();
        ServerState::new(engine)
    }

    #[test]
    fn command_surface_round_trips_without_sockets() {
        let mut state = state();
        assert_eq!(state.execute("ADD car >= 1"), "OK id=0 version=1");
        assert_eq!(state.execute("SUBSCRIBE cap=8"), "OK sub=0");
        assert_eq!(
            state.execute("FRAME 0 1:car 2:gryphon"),
            "OK frame=0 matches=0 events=0 ignored=1",
            "a label no registry entry covers is counted, not fatal"
        );
        let response = state.execute("FRAME 1 1:car");
        assert!(response.contains("matches=1 events=1"), "{response}");
        let response = state.execute("FRAME 2 1:car");
        assert!(response.contains("matches=1 events=1"), "{response}");
        let poll = state.execute("POLL 0");
        assert!(
            poll.starts_with("OK events=2 dropped=0 remaining=0"),
            "{poll}"
        );
        assert!(poll.contains("query=0 objects=1"), "{poll}");
        assert_eq!(state.execute("REMOVE 0"), "OK removed=0 version=2");
        let stats = state.execute("STATS");
        assert!(stats.contains("version=2 queries=0"), "{stats}");
    }

    #[test]
    fn malformed_commands_err_without_disturbing_state() {
        let mut state = state();
        for bad in [
            "",
            "NONSENSE",
            "ADD",
            "REMOVE x",
            "REMOVE 7",
            "SUBSCRIBE cap=zero",
            "UNSUBSCRIBE 3",
            "FRAME",
            "FRAME 0 nocolon",
            "POLL 9",
        ] {
            let response = state.execute(bad);
            assert!(response.starts_with("ERR"), "{bad:?} -> {response}");
        }
        let stats = state.execute("STATS");
        assert!(stats.contains("version=0 queries=0"), "{stats}");
        assert!(stats.contains("frames=0"), "{stats}");
    }

    #[test]
    fn durable_server_shutdown_and_restart_resume_the_catalog() {
        use crate::ServerClient;

        let disk = tvq_store::MemDisk::new();
        let dir = std::path::Path::new("/server-data");
        let config = EngineConfig::new(WindowSpec::new(3, 2).unwrap());

        let handle = QueryServer::bind_with_store("127.0.0.1:0", config, disk.io(), dir)
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = ServerClient::connect(handle.addr()).unwrap();
        client.expect_ok("ADD car >= 1").unwrap();
        for fid in 0..3u64 {
            client.expect_ok(&format!("FRAME {fid} 1:car")).unwrap();
        }
        // The SIGINT-equivalent in-band hook: flushes + fsyncs, then stops.
        assert_eq!(client.expect_ok("SHUTDOWN").unwrap(), "OK shutdown");
        drop(client);
        handle.stop().unwrap();

        // The restart. The old engine's directory lock is released when the
        // last connection thread drops its handle on the shared state —
        // briefly after `stop` returns — so the rebind retries.
        let server = {
            let mut attempt = 0;
            loop {
                match QueryServer::bind_with_store("127.0.0.1:0", config, disk.io(), dir) {
                    Ok(server) => break server,
                    Err(err) if attempt < 50 => {
                        assert!(err.to_string().contains("already open"), "{err}");
                        attempt += 1;
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    Err(err) => panic!("rebind never succeeded: {err}"),
                }
            }
        };
        let handle = server.spawn().unwrap();
        let mut client = ServerClient::connect(handle.addr()).unwrap();
        let stats = client.expect_ok("STATS").unwrap();
        assert!(stats.contains("version=1 queries=1"), "{stats}");
        assert!(stats.contains("recoveries=1"), "{stats}");
        // The recovered windows are live: the next frame still matches.
        let response = client.expect_ok("FRAME 3 1:car").unwrap();
        assert!(response.contains("matches=1"), "{response}");
        drop(client);
        handle.stop().unwrap();
    }

    /// A `POLL` cut short by the frame limit takes from the hub exactly the
    /// events it sends: the rest stay queued, so the subscription's
    /// counters agree with the reply.
    #[test]
    fn a_poll_cut_short_delivers_exactly_what_it_sends() {
        let mut state = state();
        state.execute("ADD car >= 1");
        state.execute("SUBSCRIBE cap=1000");
        let cars: String = (0..1000)
            .map(|id| format!(" {}:car", 100_000 + id))
            .collect();
        for fid in 0..200 {
            state.execute(&format!("FRAME {fid}{cars}"));
        }
        let poll = state.execute("POLL 0");
        let field = |name: &str| -> usize {
            let header = poll.lines().next().unwrap();
            let value = header.split(&format!("{name}=")).nth(1).unwrap();
            value.split_whitespace().next().unwrap().parse().unwrap()
        };
        let (events, remaining) = (field("events"), field("remaining"));
        assert_eq!(poll.lines().count() - 1, events);
        assert!(remaining > 0, "the reply must stop short: {remaining}");
        let subscription = state.hub.subscription(SubscriberId(0)).unwrap();
        assert_eq!(subscription.delivered(), events as u64);
        assert_eq!(subscription.queued(), remaining);
    }

    #[test]
    fn frame_track_ends_flow_through_to_metrics() {
        let mut state = state();
        state.execute("ADD car >= 1");
        state.execute("FRAME 0 1:car");
        let response = state.execute("FRAME 1 1:car END 1");
        assert!(response.starts_with("OK"), "{response}");
        let stats = state.execute("STATS");
        assert!(stats.contains("tracks_ended=1"), "{stats}");
    }
}
