//! End-to-end smoke of the TCP server on an ephemeral port: query
//! registration and cancellation, a match round-tripping through a
//! subscription, and backpressure drops on an overflowing subscriber.

use tvq_common::WindowSpec;
use tvq_engine::EngineConfig;
use tvq_server::{QueryServer, ServerClient};

fn field(response: &str, key: &str) -> u64 {
    response
        .split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in {response:?}"))
}

fn start() -> tvq_server::ServerHandle {
    let config = EngineConfig::new(WindowSpec::new(4, 3).unwrap());
    QueryServer::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap()
}

#[test]
fn register_match_cancel_round_trip() {
    let handle = start();
    let mut client = ServerClient::connect(handle.addr()).unwrap();

    let added = client.expect_ok("ADD car >= 1 AND person >= 1").unwrap();
    let qid = field(&added, "id");
    assert_eq!(field(&added, "version"), 1);
    // Ids mint sequentially, and the version counts every catalog change:
    // two adds + one remove = 3.
    let throwaway = field(&client.expect_ok("ADD bus >= 2").unwrap(), "id");
    assert_eq!(throwaway, qid + 1);
    let removed = client.expect_ok(&format!("REMOVE {throwaway}")).unwrap();
    assert_eq!(field(&removed, "version"), 3, "{removed}");
    let sub = field(&client.expect_ok("SUBSCRIBE cap=16").unwrap(), "sub");

    // Three co-occurring frames fill the duration threshold (window 4/3).
    for fid in 0..3 {
        client
            .expect_ok(&format!("FRAME {fid} 10:car 20:person"))
            .unwrap();
    }
    let poll = client.expect_ok(&format!("POLL {sub} 100")).unwrap();
    assert_eq!(field(&poll, "events"), 1, "{poll}");
    let event = poll.lines().nth(1).expect("one EVENT line");
    assert!(event.contains(&format!("query={qid}")), "{event}");
    assert!(event.contains("objects=10,20"), "{event}");

    // Cancel: the next full window must not match, and polling is quiet.
    client.expect_ok(&format!("REMOVE {qid}")).unwrap();
    for fid in 3..8 {
        let pushed = client
            .expect_ok(&format!("FRAME {fid} 10:car 20:person"))
            .unwrap();
        assert_eq!(field(&pushed, "matches"), 0, "{pushed}");
    }
    let drained = client.expect_ok(&format!("POLL {sub} 100")).unwrap();
    assert_eq!(field(&drained, "events"), 0, "{drained}");

    // Unknown ids and malformed commands report ERR, connection survives.
    assert!(client.request("REMOVE 99").unwrap().starts_with("ERR"));
    assert!(client.request("GIBBERISH").unwrap().starts_with("ERR"));
    assert!(client.expect_ok("PING").is_ok());

    client.quit().unwrap();
    handle.stop().unwrap();
}

#[test]
fn overflowing_subscriber_counts_drops_and_keeps_newest() {
    let handle = start();
    let mut client = ServerClient::connect(handle.addr()).unwrap();
    client.expect_ok("ADD car >= 1").unwrap();
    let tiny = field(&client.expect_ok("SUBSCRIBE cap=2").unwrap(), "sub");

    // Frames 2..=9 each publish one match: 8 events into a 2-slot queue.
    for fid in 0..10 {
        client.expect_ok(&format!("FRAME {fid} 1:car")).unwrap();
    }
    let poll = client.expect_ok(&format!("POLL {tiny} 100")).unwrap();
    assert_eq!(field(&poll, "events"), 2, "{poll}");
    assert_eq!(field(&poll, "dropped"), 6, "{poll}");
    // Drop-oldest: the two survivors are the two newest frames' matches.
    let frames: Vec<u64> = poll
        .lines()
        .skip(1)
        .map(|line| field(line, "frame"))
        .collect();
    assert_eq!(frames, vec![8, 9], "{poll}");

    client.quit().unwrap();
    handle.stop().unwrap();
}

/// A response past the old 8 KiB write buffer must still leave as one
/// segment train: prefix and payload written separately met Nagle and the
/// peer's delayed ACK, and every such `POLL` took ~44 ms.
#[test]
fn large_poll_responses_do_not_stall() {
    let handle = start();
    let mut client = ServerClient::connect(handle.addr()).unwrap();
    client.expect_ok("ADD car >= 1").unwrap();
    let sub = field(&client.expect_ok("SUBSCRIBE cap=64").unwrap(), "sub");
    let cars: String = (0..600).map(|id| format!(" {}:car", 10_000 + id)).collect();
    // Best of three rounds, so one scheduling hiccup on a busy host is
    // not a failure; the stall hit every round.
    let mut best = std::time::Duration::MAX;
    for round in 0..3 {
        for fid in round * 8..round * 8 + 8 {
            client.expect_ok(&format!("FRAME {fid}{cars}")).unwrap();
        }
        let started = std::time::Instant::now();
        let poll = client.expect_ok(&format!("POLL {sub}")).unwrap();
        best = best.min(started.elapsed());
        assert!(poll.len() > 16 * 1024, "only {} bytes", poll.len());
    }
    assert!(best.as_millis() < 20, "POLL round trip took {best:?}");
    client.quit().unwrap();
    handle.stop().unwrap();
}

/// A `POLL` whose reply would pass `MAX_FRAME_LEN` used to drain every
/// event, fail to write the reply and drop the connection — the matches
/// were gone. It now stops short of the limit and leaves the rest queued.
#[test]
fn oversized_polls_split_instead_of_destroying_events() {
    let config = EngineConfig::new(WindowSpec::new(2, 1).unwrap());
    let handle = QueryServer::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = ServerClient::connect(handle.addr()).unwrap();
    client.expect_ok("ADD car >= 1").unwrap();
    let sub = field(&client.expect_ok("SUBSCRIBE cap=100000").unwrap(), "sub");
    let cars: String = (0..1000)
        .map(|id| format!(" {}:car", 100_000 + id))
        .collect();
    for fid in 0..200 {
        client.expect_ok(&format!("FRAME {fid}{cars}")).unwrap();
    }
    let mut seqs = Vec::new();
    for expect_more in [true, false] {
        let poll = client.expect_ok(&format!("POLL {sub}")).unwrap();
        assert_eq!(
            field(&poll, "remaining") > 0,
            expect_more,
            "{}",
            &poll[..60]
        );
        seqs.extend(poll.lines().skip(1).map(|line| field(line, "seq")));
    }
    assert_eq!(seqs, (0..200).collect::<Vec<u64>>());
    client.quit().unwrap();
    handle.stop().unwrap();
}

/// A tracker id at the top of `u32` lies in the lifecycle's alias range;
/// it is a valid id, not a reason to panic while the engine lock is held.
#[test]
fn tracker_id_in_the_alias_range_is_served() {
    let handle = start();
    let mut client = ServerClient::connect(handle.addr()).unwrap();
    client.expect_ok("ADD car >= 1").unwrap();
    client.expect_ok("FRAME 0 4294967295:car").unwrap();
    client.expect_ok("PING").unwrap();
    client.quit().unwrap();
    handle.stop().unwrap();
}

#[test]
fn two_clients_share_one_engine() {
    let handle = start();
    let mut writer = ServerClient::connect(handle.addr()).unwrap();
    let mut reader = ServerClient::connect(handle.addr()).unwrap();

    writer.expect_ok("ADD person >= 2").unwrap();
    let sub = field(&reader.expect_ok("SUBSCRIBE").unwrap(), "sub");
    for fid in 0..3 {
        writer
            .expect_ok(&format!("FRAME {fid} 1:person 2:person"))
            .unwrap();
    }
    let poll = reader.expect_ok(&format!("POLL {sub}")).unwrap();
    assert_eq!(field(&poll, "events"), 1, "{poll}");
    let stats = reader.expect_ok("STATS").unwrap();
    assert_eq!(field(&stats, "frames"), 3, "{stats}");
    assert_eq!(field(&stats, "version"), 1, "{stats}");
    assert_eq!(field(&stats, "queries"), 1, "{stats}");
    assert_eq!(field(&stats, "subscribers"), 1, "{stats}");
    assert!(
        field(&stats, "published") >= field(&poll, "events"),
        "{stats}"
    );

    // The in-band shutdown hook acknowledges before the accept loop stops.
    writer.quit().unwrap();
    assert_eq!(reader.expect_ok("SHUTDOWN").unwrap(), "OK shutdown");
    handle.stop().unwrap();
}
