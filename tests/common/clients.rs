//! Concurrent wire clients shared by the serve tests.

use dbexplorer::serve::Client;
use std::net::SocketAddr;

/// Replays `script` through `clients` concurrent connections to `addr`
/// and returns each client's response lines, in client order.
pub fn concurrent_transcripts(
    addr: SocketAddr,
    clients: usize,
    script: &[&str],
) -> Vec<Vec<String>> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    script
                        .iter()
                        .map(|req| client.request_line(req).expect("request"))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    })
}
