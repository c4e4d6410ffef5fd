//! The open-loop load generator.
//!
//! Each connection follows a send schedule fixed before the phase starts:
//! a sender thread writes every request at its due time whether or not
//! earlier replies have arrived (the server answers one connection's
//! requests in order, so unanswered requests queue in the socket), and a
//! receiver thread reads the replies in order. A request's latency runs
//! from its due time, so a stall also charges the requests queued behind
//! it; how late the sender itself ran is reported as lateness.

use ftspan_net::{Request, Response};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a receiver waits for any one reply before the rest of its
/// connection's requests count as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One scheduled request: due time in seconds after the phase origin.
pub struct Scheduled {
    pub due: f64,
    pub request: Request,
}

/// What happened to one scheduled request; times in seconds after the
/// phase origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub due: f64,
    /// When the sender finished writing it (`None`: never sent).
    pub sent: Option<f64>,
    /// When its reply was read (`None`: no reply).
    pub done: Option<f64>,
    /// `true` when the reply answered the request without an error.
    pub ok: bool,
    /// `true` when admission control answered `Overloaded`.
    pub rejected: bool,
}

impl Outcome {
    /// Latency from the due time, for requests that succeeded.
    pub fn latency(&self) -> Option<f64> {
        match (self.ok, self.done) {
            (true, Some(done)) => Some(done - self.due),
            _ => None,
        }
    }

    /// Round trip from sending to the reply, for requests that succeeded.
    pub fn round_trip(&self) -> Option<f64> {
        match (self.ok, self.sent, self.done) {
            (true, Some(sent), Some(done)) => Some(done - sent),
            _ => None,
        }
    }

    /// How late the sender wrote the request (never negative).
    pub fn lateness(&self) -> Option<f64> {
        self.sent.map(|sent| (sent - self.due).max(0.0))
    }
}

/// Counts and samples of a set of outcomes, in milliseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Summary {
    pub attempted: usize,
    pub failed: usize,
    pub latency_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
}

impl Summary {
    pub fn of(outcomes: &[Outcome]) -> Summary {
        let mut s = Summary::default();
        s.add(outcomes);
        s
    }

    pub fn add_summary(&mut self, other: &Summary) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_ms.extend_from_slice(&other.latency_ms);
        self.lateness_ms.extend_from_slice(&other.lateness_ms);
    }

    /// Every scheduled request counts as attempted; a request without a
    /// successful reply counts as failed and adds no latency sample.
    pub fn add(&mut self, outcomes: &[Outcome]) {
        for o in outcomes {
            self.attempted += 1;
            match o.latency() {
                Some(l) => self.latency_ms.push(l * 1e3),
                None => self.failed += 1,
            }
            if let Some(l) = o.lateness() {
                self.lateness_ms.push(l * 1e3);
            }
        }
    }
}

/// Whether a reply is the successful answer to a request.
pub fn reply_ok(response: &Response) -> bool {
    match response {
        Response::Batch(results) => results.iter().all(Result::is_ok),
        Response::DeltasApplied(result) => result.is_ok(),
        Response::Artifacts(_) | Response::Stats(_) => true,
        Response::Overloaded | Response::ShuttingDown => false,
    }
}

/// Runs one connection's schedule against `addr` and returns one outcome
/// per request, plus the replies for the indices in `keep` (sorted).
pub fn drive(
    addr: SocketAddr,
    origin: Instant,
    schedule: &[Scheduled],
    keep: &[usize],
) -> (Vec<Outcome>, Vec<(usize, Response)>) {
    let since = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
    let mut outcomes: Vec<Outcome> = schedule
        .iter()
        .map(|s| Outcome {
            due: s.due,
            sent: None,
            done: None,
            ok: false,
            rejected: false,
        })
        .collect();
    let mut kept = Vec::new();
    let Ok(stream) = TcpStream::connect(addr) else {
        return (outcomes, kept);
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
    let Ok(read_half) = stream.try_clone() else {
        return (outcomes, kept);
    };
    // Encode every frame before the phase starts, so that lateness is the
    // scheduler's alone.
    let frames: Vec<Vec<u8>> = schedule
        .iter()
        .map(|s| {
            let mut frame = Vec::new();
            s.request
                .write_to(&mut frame)
                .expect("encoding into memory cannot fail");
            frame
        })
        .collect();

    let (sent, replies) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut writer = BufWriter::new(&stream);
            let mut sent = Vec::with_capacity(frames.len());
            for (s, frame) in schedule.iter().zip(&frames) {
                let due = origin + Duration::from_secs_f64(s.due);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if writer
                    .write_all(frame)
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break;
                }
                sent.push(since(Instant::now()));
            }
            sent
        });
        let mut reader = BufReader::new(&read_half);
        let mut replies = Vec::with_capacity(frames.len());
        for _ in 0..frames.len() {
            match Response::read_from(&mut reader) {
                Ok(response) => replies.push((since(Instant::now()), response)),
                Err(_) => break,
            }
        }
        // A receiver that gave up must not leave the sender blocked on a
        // full socket.
        stream.shutdown(std::net::Shutdown::Both).ok();
        (sender.join().expect("the sender thread panicked"), replies)
    });

    for (o, t) in outcomes.iter_mut().zip(sent) {
        o.sent = Some(t);
    }
    let mut keep = keep.iter().peekable();
    for (i, (done, response)) in replies.into_iter().enumerate() {
        let o = &mut outcomes[i];
        o.done = Some(done);
        o.ok = o.sent.is_some() && reply_ok(&response);
        o.rejected = matches!(response, Response::Overloaded);
        if keep.next_if(|&&k| k == i).is_some() {
            kept.push((i, response));
        }
    }
    (outcomes, kept)
}

/// Sends one request per due time, one at a time: each goes out at its due
/// time or as soon as the previous reply has arrived, whichever is later.
/// Each request is made by `next` just before it is sent, so a request
/// never sent (the connection broke) is never made. Returns what was sent,
/// with its outcome.
pub fn drive_closed(
    addr: SocketAddr,
    origin: Instant,
    dues: &[f64],
    mut next: impl FnMut() -> Request,
) -> (Vec<Scheduled>, Vec<Outcome>) {
    let since = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
    let (mut sent_requests, mut outcomes) = (Vec::new(), Vec::new());
    let Ok(stream) = TcpStream::connect(addr) else {
        return (sent_requests, outcomes);
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
    for &due in dues {
        let at = origin + Duration::from_secs_f64(due);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let request = next();
        let mut outcome = Outcome {
            due,
            sent: None,
            done: None,
            ok: false,
            rejected: false,
        };
        if request.write_to(&mut BufWriter::new(&stream)).is_ok() {
            outcome.sent = Some(since(Instant::now()));
            if let Ok(response) = Response::read_from(&mut BufReader::new(&stream)) {
                outcome.done = Some(since(Instant::now()));
                outcome.ok = reply_ok(&response);
                outcome.rejected = matches!(response, Response::Overloaded);
            }
        }
        let broken = outcome.done.is_none();
        sent_requests.push(Scheduled { due, request });
        outcomes.push(outcome);
        if broken {
            break;
        }
    }
    (sent_requests, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(due: f64, sent: Option<f64>, done: Option<f64>, ok: bool) -> Outcome {
        Outcome {
            due,
            sent,
            done,
            ok,
            rejected: false,
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lateness_from_sending() {
        // Sent 30 ms late, answered 50 ms after sending: 80 ms latency.
        let o = outcome(1.0, Some(1.03), Some(1.08), true);
        assert!((o.latency().unwrap() - 0.08).abs() < 1e-12);
        assert!((o.lateness().unwrap() - 0.03).abs() < 1e-12);
        // Sent early (the sleep overshoots the other way): zero lateness.
        assert_eq!(outcome(1.0, Some(0.999), None, false).lateness(), Some(0.0));
        // A closed-loop round trip runs from sending, not from the due time.
        assert!((o.round_trip().unwrap() - 0.05).abs() < 1e-12);
        assert_eq!(outcome(1.0, Some(1.0), None, false).round_trip(), None);
    }

    #[test]
    fn failures_count_against_attempts_and_add_no_latency() {
        let outcomes = [
            outcome(0.0, Some(0.001), Some(0.010), true),
            // Error reply (or `Overloaded`): answered but failed.
            outcome(0.1, Some(0.100), Some(0.105), false),
            // Timed out or dropped: sent, never answered.
            outcome(0.2, Some(0.250), None, false),
            // Never sent: the connection broke first.
            outcome(0.3, None, None, false),
        ];
        let s = Summary::of(&outcomes);
        assert_eq!(s.attempted, 4);
        assert_eq!(s.failed, 3);
        assert_eq!(s.latency_ms.len(), 1);
        assert!((s.latency_ms[0] - 10.0).abs() < 1e-9);
        assert_eq!(s.lateness_ms.len(), 3);
        assert!((s.lateness_ms[2] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rejections_are_failures() {
        assert!(!reply_ok(&Response::Overloaded));
        assert!(!reply_ok(&Response::ShuttingDown));
        assert!(reply_ok(&Response::Batch(Vec::new())));
    }
}
