//! `server-live`: a sparse film over the TCP server, `FRAME` on one
//! connection, `POLL` on another, the catalog swapped as the film runs.
//!
//! The engine is cheap here, so the shell around it — framing, socket, the
//! server's one mutex, hub publish and poll, response formatting — is most
//! of the time from a frame going in to its matches coming out. Durability
//! is off so that the shell is not buried under fsyncs.

use std::io::Cursor;
use std::time::Instant;

use tvq_common::{ClassRegistry, FeedId, QueryId};
use tvq_core::MaintainerKind;
use tvq_engine::{SubscriberId, SubscriptionHub};
use tvq_query::QueryMatch;
use tvq_server::protocol::{read_frame, write_frame};
use tvq_server::{QueryServer, ServerClient};

use super::traced::{self, ratio, Hooks, FRAME};
use super::{
    build_engine, state_bytes, timed, Call, CatalogOp, Extent, Film, Layers, Pass, Prepared,
    Traced, Workload, SAMPLE_EVERY,
};
use crate::input::{
    engine_config, frame_command, late_queries, mixed_queries, query_text, sparse_film, Digest,
    Scale,
};
use crate::path::FramePath;
use crate::stats;
use crate::trace::{by_name, SpanId, Tracer, ROOT};
use crate::Res;

/// Frames between two catalog swaps (one `ADD`, one `REMOVE`).
const SWAP_EVERY: usize = 600;
/// Large enough that the subscriber's queue never drops an event.
const SUBSCRIBER_CAPACITY: usize = 1_000_000;
/// `PING` round trips that measure the floor of the shell.
const PINGS: usize = 200;

const FRAME_RTT: &str = "server.frame_rtt";
const POLL_RTT: &str = "server.poll_rtt";
const HUB_PUBLISH: &str = "engine.hub.publish";
const HUB_POLL: &str = "engine.hub.poll";

pub struct Server {
    film: Film,
    /// The film and the queries in the wire language, made once: writing a
    /// command is the camera's work, not the server's.
    frame_commands: Vec<String>,
    add_commands: Vec<String>,
    /// The same frames and swaps through an embedded engine: the engine's
    /// own time, and the state gauges, which `STATS` does not carry. So
    /// `state_bytes_peak` moves with the engine here and not with the shell
    /// around it (README, "End-to-end metrics").
    shadow: Shadow,
}

struct Shadow {
    state_bytes_peak: u64,
    observe_us: f64,
    swap_us: f64,
}

/// A served pass; the traced one also keeps what it saw on the wire.
#[derive(Default)]
struct Wire {
    responses: Vec<String>,
    ping_ns: Vec<u64>,
    errors: u64,
}

fn ok_field(response: &str, key: &str) -> Option<u64> {
    response
        .strip_prefix("OK")?
        .lines()
        .next()?
        .split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// The matches a `POLL` response carries, if all are of frame `fid`.
fn poll_digest(response: &str, fid: u64) -> Option<Digest> {
    let mut digest = Digest::default();
    let mut lines = response.lines();
    let events = ok_field(lines.next()?, "events")?;
    for line in lines {
        let mut fields = line.strip_prefix("EVENT ")?.split_whitespace().skip(1);
        let frame: u64 = fields.next()?.strip_prefix("frame=")?.parse().ok()?;
        let query: u32 = fields.next()?.strip_prefix("query=")?.parse().ok()?;
        let mut objects: Vec<u32> = fields
            .next()?
            .strip_prefix("objects=")?
            .split(',')
            .map(|id| id.parse().ok())
            .collect::<Option<_>>()?;
        objects.sort_unstable();
        if frame != fid {
            return None;
        }
        digest.add(query, objects.into_iter());
    }
    (u64::from(digest.matches) == events).then_some(digest)
}

impl Server {
    pub fn new(seed: u64, scale: Scale) -> Res<Self> {
        let queries = mixed_queries();
        let frames = scale.frames(tvq_video::DatasetProfile::v2().frames * 3);
        let swap_every = scale.frames(SWAP_EVERY);
        let swaps = (frames - 1) / swap_every;
        let ops = late_queries(swaps)
            .into_iter()
            .enumerate()
            .map(|(k, mut add)| {
                // `ADD` mints the smallest id above every registered one.
                add.id = QueryId((queries.len() + k) as u32);
                CatalogOp {
                    before_frame: (k + 1) * swap_every,
                    add,
                    remove: QueryId(k as u32),
                }
            })
            .collect();
        let film = Film::new(|| sparse_film(seed, scale), queries, ops)?;
        let registry = ClassRegistry::with_default_classes();
        let command = |query| format!("ADD {}", query_text(query, &registry));
        Ok(Server {
            frame_commands: film
                .frames
                .iter()
                .map(|f| frame_command(f, &registry))
                .collect(),
            add_commands: film
                .queries
                .iter()
                .chain(film.ops.iter().map(|op| &op.add))
                .map(command)
                .collect(),
            shadow: Shadow::run(&film)?,
            film,
        })
    }

    /// One pass against a fresh server. `tracer` gets a root span per frame
    /// with one child per round trip; `wire` keeps what crossed the socket.
    fn run(&self, extent: Extent, mut tracer: Option<&mut Tracer>, wire: &mut Wire) -> Res<Pass> {
        let started = Instant::now();
        let handle = QueryServer::bind("127.0.0.1:0", engine_config())?.spawn()?;
        let mut frames_in = ServerClient::connect(handle.addr())?;
        let mut matches_out = ServerClient::connect(handle.addr())?;
        let mut failed = 0;
        for (id, command) in self.add_commands[..self.film.queries.len()]
            .iter()
            .enumerate()
        {
            let response = frames_in.request(command)?;
            failed += u64::from(ok_field(&response, "id") != Some(id as u64));
        }
        let subscribed = matches_out.request(&format!("SUBSCRIBE cap={SUBSCRIBER_CAPACITY}"))?;
        let subscriber = ok_field(&subscribed, "sub").ok_or("SUBSCRIBE was refused")?;
        let poll_command = format!("POLL {subscriber}");

        let window = self.film.first_window();
        let mut setup_s = 0.0;
        let mut calls = Vec::with_capacity(self.film.frames.len());
        let end = extent.end(window, self.film.frames.len());
        for (index, command) in self.frame_commands[..end].iter().enumerate() {
            if index == window {
                setup_s = started.elapsed().as_secs_f64();
                if tracer.is_some() {
                    for _ in 0..PINGS {
                        wire.ping_ns.push(timed(|| frames_in.request("PING")).1);
                    }
                }
            }
            for (k, op) in self
                .film
                .ops
                .iter()
                .enumerate()
                .filter(|(_, op)| op.before_frame == index)
            {
                let add = &self.add_commands[self.film.queries.len() + k];
                let (responses, nanos) = timed(|| -> Res<_> {
                    Ok((
                        frames_in.request(add)?,
                        frames_in.request(&format!("REMOVE {}", op.remove.0))?,
                    ))
                });
                let (added, removed) = responses?;
                calls.push(Call { nanos, frames: 0 });
                let as_asked = ok_field(&added, "id") == Some(u64::from(op.add.id.0))
                    && ok_field(&removed, "removed") == Some(u64::from(op.remove.0));
                failed += u64::from(!as_asked);
            }
            let fid = self.film.frames[index].fid.0;
            let traced = tracer.as_deref_mut().filter(|_| index >= window);
            let started = Instant::now();
            let (accepted, polled) = match traced {
                Some(tracer) => {
                    let root = tracer.start(FRAME, ROOT, fid);
                    let accepted = tracer.span(FRAME_RTT, root, fid, || frames_in.request(command));
                    let polled =
                        tracer.span(POLL_RTT, root, fid, || matches_out.request(&poll_command));
                    tracer.end(root);
                    (accepted?, polled?)
                }
                None => (
                    frames_in.request(command)?,
                    matches_out.request(&poll_command)?,
                ),
            };
            // The matches are in hand once the response is parsed.
            let digest = poll_digest(&polled, fid);
            if index >= window {
                calls.push(Call {
                    nanos: started.elapsed().as_nanos() as u64,
                    frames: 1,
                });
            }
            let refused = !accepted.starts_with("OK") || ok_field(&polled, "dropped") != Some(0);
            wire.errors +=
                u64::from(!accepted.starts_with("OK")) + u64::from(!polled.starts_with("OK"));
            failed += match digest {
                Some(digest) if !refused => self.film.check(index, digest),
                _ => 1,
            };
            if tracer.is_some() && index >= window {
                wire.responses.push(accepted);
                wire.responses.push(polled);
            }
        }
        if end == window {
            setup_s = started.elapsed().as_secs_f64();
        }
        frames_in.quit()?;
        matches_out.quit()?;
        handle.stop()?;
        Ok(Pass {
            setup_s,
            calls,
            attempted: end as u64,
            failed,
            state_bytes_peak: self.shadow.state_bytes_peak,
        })
    }
}

impl Shadow {
    fn run(film: &Film) -> Res<Shadow> {
        let mut engine = build_engine(MaintainerKind::Ssg, &film.queries)?;
        let window = film.first_window();
        let (mut observe_ns, mut swap_ns, mut state_bytes_peak) = (0, 0, 0);
        for (index, frame) in film.frames.iter().enumerate() {
            for op in film.ops.iter().filter(|op| op.before_frame == index) {
                let (swapped, nanos) = timed(|| {
                    engine
                        .add_query(op.add.clone())
                        .and_then(|()| engine.remove_query(op.remove))
                });
                swapped?;
                swap_ns += nanos;
            }
            let (result, nanos) = timed(|| engine.observe(frame));
            if film.check(index, Digest::of(&result?.matches)) > 0 {
                return Err("the embedded SSG engine disagrees with the reference".into());
            }
            if index >= window {
                observe_ns += nanos;
            }
            if index % SAMPLE_EVERY == 0 {
                state_bytes_peak = state_bytes_peak.max(state_bytes(&engine.metrics()));
            }
        }
        Ok(Shadow {
            state_bytes_peak,
            observe_us: observe_ns as f64 / 1e3 / (film.frames.len() - window) as f64,
            swap_us: ratio(swap_ns as f64 / 1e3, film.ops.len() as f64),
        })
    }
}

/// The hub's half of a served frame, as the server's `FRAME` and `POLL`
/// handlers call it.
struct HubHooks {
    hub: SubscriptionHub,
    subscriber: SubscriberId,
    /// Events polled from frame `count_from` on (the timed section).
    count_from: u64,
    events: u64,
}

impl Hooks for HubHooks {
    fn after(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        index: u64,
        matches: &[QueryMatch],
        _path: &FramePath,
    ) -> Res<()> {
        let fid = tvq_common::FrameId(index);
        tracer.span(HUB_PUBLISH, root, index, || {
            self.hub.publish(FeedId(0), fid, matches)
        });
        let events = tracer.span(HUB_POLL, root, index, || {
            self.hub.poll(self.subscriber, usize::MAX)
        })?;
        if index >= self.count_from {
            self.events += events.len() as u64;
        }
        Ok(())
    }
}

/// Share of round trips that took more than ten times their median.
fn slow_share(rtt_ns: &[u64]) -> f64 {
    let limit = stats::quantile(rtt_ns, 0.5) * 10;
    rtt_ns.iter().filter(|&&ns| ns > limit).count() as f64 / rtt_ns.len() as f64
}

impl Workload for Server {
    fn name(&self) -> &'static str {
        crate::spec::SERVER_LIVE
    }

    fn prepared(&self) -> &Prepared {
        &self.film.prepared
    }

    fn pass(&mut self, extent: Extent) -> Res<Pass> {
        self.run(extent, None, &mut Wire::default())
    }

    fn traced(&mut self) -> Res<Traced> {
        let untraced = self.run(Extent::Whole, None, &mut Wire::default())?;
        let mut tracer = Tracer::new(self.film.frames.len() * 10);
        let mut wire = Wire::default();
        let served = self.run(Extent::Whole, Some(&mut tracer), &mut wire)?;
        let served_spans = tracer.spans().len();

        // The same frames through the hand-assembled engine and hub.
        let mut hub = SubscriptionHub::new();
        let subscriber = hub.subscribe(SUBSCRIBER_CAPACITY, None);
        let mut hooks = HubHooks {
            hub,
            subscriber,
            count_from: self.film.first_window() as u64,
            events: 0,
        };
        let path = traced::new_path(&self.film, MaintainerKind::Ssg)?;
        let run = traced::replay(&self.film, path, &mut tracer, &mut hooks)?;
        let (served_spans, shadow_spans) = tracer.spans().split_at(served_spans);
        let frames = run.frames;

        let mut layers = Layers::default();
        traced::set_core_layers(&mut layers, &[&self.film], shadow_spans, &run)?;
        traced::set_trace_layers(&mut layers, served_spans, untraced.frame_ns());
        let shadow = by_name(shadow_spans);
        let core_us: f64 = shadow
            .iter()
            .filter(|(name, _)| ![FRAME, HUB_PUBLISH, HUB_POLL].contains(name))
            .map(|(_, s)| s.mean_us(frames))
            .sum();
        traced::set_observe_layers(&mut layers, self.shadow.observe_us, core_us);
        let publish_us = traced::mean_us(shadow_spans, HUB_PUBLISH, frames);
        let poll_us = traced::mean_us(shadow_spans, HUB_POLL, frames);
        layers.set("engine.hub.publish_us", publish_us);
        layers.set("engine.hub.poll_us", poll_us);
        layers.set(
            "engine.hub.events_per_frame",
            hooks.events as f64 / frames as f64,
        );
        layers.set("engine.hub.dropped", hooks.hub.total_dropped() as f64);
        layers.set("engine.catalog.swap_us", self.shadow.swap_us);

        let frame_rtt_us = traced::mean_us(served_spans, FRAME_RTT, frames);
        let poll_rtt_us = traced::mean_us(served_spans, POLL_RTT, frames);
        layers.set(
            "server.rtt_ping_us",
            stats::quantile(&wire.ping_ns, 0.5) as f64 / 1e3,
        );
        layers.set("server.frame_rtt_us", frame_rtt_us);
        layers.set("server.poll_rtt_us", poll_rtt_us);
        layers.set(
            "server.shell_us",
            frame_rtt_us + poll_rtt_us - self.shadow.observe_us - publish_us - poll_us,
        );

        // The codec alone, on the run's real messages, in memory.
        let window = self.film.first_window();
        let poll_command = format!("POLL {}", subscriber.0);
        let messages: Vec<&str> = self.frame_commands[window..]
            .iter()
            .map(String::as_str)
            .chain(std::iter::repeat_n(poll_command.as_str(), frames))
            .chain(wire.responses.iter().map(String::as_str))
            .collect();
        let mut encoded = Vec::new();
        let (written, encode_ns) = timed(|| {
            messages
                .iter()
                .try_for_each(|message| write_frame(&mut encoded, message))
        });
        written?;
        let mut reader = Cursor::new(&encoded);
        let (decoded, decode_ns) = timed(|| -> Res<usize> {
            let mut bytes = 0;
            while let Some(message) = read_frame(&mut reader)? {
                bytes += message.len();
            }
            Ok(bytes)
        });
        if decoded? != messages.iter().map(|m| m.len()).sum::<usize>() {
            return Err("the wire codec did not round-trip the run's messages".into());
        }
        layers.set(
            "server.proto.encode_us",
            encode_ns as f64 / 1e3 / frames as f64,
        );
        layers.set(
            "server.proto.decode_us",
            decode_ns as f64 / 1e3 / frames as f64,
        );
        let request_bytes: usize = self.frame_commands[window..].iter().map(String::len).sum();
        layers.set(
            "server.req_bytes_per_frame",
            (request_bytes + frames * poll_command.len()) as f64 / frames as f64,
        );
        let response_bytes: Vec<u64> = wire.responses.iter().map(|r| r.len() as u64).collect();
        layers.set(
            "server.resp_bytes_p50",
            stats::quantile(&response_bytes, 0.5) as f64,
        );
        layers.set(
            "server.resp_bytes_max",
            stats::quantile(&response_bytes, 1.0) as f64,
        );
        let round_trips = by_name(served_spans);
        let slow = slow_share(&round_trips[FRAME_RTT].durations_ns)
            + slow_share(&round_trips[POLL_RTT].durations_ns);
        layers.set("server.slow_rtt_share", slow / 2.0);
        layers.set("server.errors", wire.errors as f64);
        Ok(Traced {
            layers,
            end_to_end: Vec::new(),
            spans: tracer.spans().to_vec(),
            attempted: untraced.attempted + served.attempted + self.film.frames.len() as u64,
            failed: untraced.failed + served.failed + run.failed,
        })
    }

    fn corrupt_reference(&mut self) {
        self.film.corrupt_reference();
    }
}
