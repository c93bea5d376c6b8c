//! The server outlives file-descriptor exhaustion: an `accept` that
//! fails for lack of descriptors is counted as an error and retried on
//! a later poll tick, and the server answers again once descriptors
//! free up.
//!
//! The test lowers this process's own `RLIMIT_NOFILE`, so it lives in
//! its own test binary (one process, one test).
#![cfg(target_os = "linux")]

use std::fs::File;
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adc_server::{Client, Server, ServerConfig};

/// Minimal `getrlimit`/`setrlimit(2)` binding — the only system
/// interface this test needs beyond std.
mod sys {
    use std::ffi::{c_int, c_ulong};
    use std::io;

    /// Mirror of the C `struct rlimit` (`rlim_t` is `unsigned long` on
    /// Linux).
    #[repr(C)]
    struct RLimit {
        cur: c_ulong,
        max: c_ulong,
    }

    const RLIMIT_NOFILE: c_int = 7;

    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }

    /// Lowers the soft open-file limit to `limit`, keeping the hard one.
    pub fn set_nofile_soft(limit: c_ulong) -> io::Result<()> {
        let mut rlim = RLimit { cur: 0, max: 0 };
        // SAFETY: `rlim` is a valid, exclusive #[repr(C)] rlimit for
        // the duration of each call — exactly the getrlimit/setrlimit
        // contract.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut rlim) } != 0 {
            return Err(io::Error::last_os_error());
        }
        rlim.cur = limit.min(rlim.max);
        // SAFETY: as above.
        if unsafe { setrlimit(RLIMIT_NOFILE, &rlim) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

/// Polls `cond` every few milliseconds for up to ten seconds, failing
/// early if the serve thread has returned.
fn wait_for(what: &str, serve: &JoinHandle<std::io::Result<()>>, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(
            !serve.is_finished(),
            "serve() returned while waiting for {what}"
        );
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn server_keeps_serving_after_descriptor_exhaustion() {
    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (handle, join) = Server::spawn("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr();
    let metrics = handle.metrics();
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.ping(1).expect("ping before exhaustion"), 1);
    drop(client);
    let opened_before = metrics.snapshot().connections;

    sys::set_nofile_soft(64).expect("lower RLIMIT_NOFILE");
    // One descriptor held back: releasing it after the connect loop
    // guarantees a connection the client can open but the server
    // cannot accept, whichever side took the last descriptor first.
    let reserve = File::open("/dev/null").expect("reserve a descriptor");
    let mut conns = Vec::new();
    while let Ok(stream) = TcpStream::connect(addr) {
        conns.push(stream);
        assert!(conns.len() < 1000, "the descriptor limit never bit");
    }
    assert!(!conns.is_empty(), "no connection fit under the limit");

    // Either the server already failed an accept (the client took the
    // last descriptor), or it accepted every connection (it did).
    wait_for("the server to settle", &join, || {
        let snap = metrics.snapshot();
        snap.errors > 0 || snap.connections == opened_before + conns.len() as u64
    });
    if metrics.snapshot().errors == 0 {
        drop(reserve);
        conns.push(TcpStream::connect(addr).expect("connect on the freed descriptor"));
        wait_for("a failed accept", &join, || metrics.snapshot().errors > 0);
    }
    // Several poll ticks pass with the backlog unacceptable.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        !join.is_finished(),
        "serve() returned under descriptor exhaustion"
    );

    drop(conns);
    let mut client = Client::connect(addr).expect("connect after exhaustion");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    assert_eq!(client.ping(7).expect("ping after exhaustion"), 7);
    assert!(!join.is_finished(), "serve() returned after exhaustion");

    client.shutdown().expect("shutdown acknowledged");
    join.join()
        .expect("server thread")
        .expect("serve returns cleanly");
}
