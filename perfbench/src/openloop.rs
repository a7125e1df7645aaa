//! Open-loop request generation with due-time accounting.
//!
//! Request `i` is due at `i × interval` after the start, whether or not
//! earlier requests have finished. Its latency runs from that due time to
//! the moment the generator observes it complete, so a stall in the
//! generator (or anything that delays a submission) raises the latency of
//! every request it delays instead of hiding it. How late each submission
//! went out is recorded separately as the generator's lateness.

use std::time::{Duration, Instant};

/// What one poll of an outstanding request saw.
pub enum Poll<O> {
    Pending,
    Done(O),
    Failed(String),
}

/// Timing of one request, nanoseconds since the run's start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Record {
    pub due_ns: u64,
    pub submit_ns: u64,
    /// When the generator saw the request complete (`None`: never did).
    pub done_ns: Option<u64>,
}

impl Record {
    /// Due time → observed completion.
    pub fn latency_ns(&self) -> Option<u64> {
        self.done_ns.map(|d| d.saturating_sub(self.due_ns))
    }

    /// How late the generator submitted the request.
    pub fn lateness_ns(&self) -> u64 {
        self.submit_ns.saturating_sub(self.due_ns)
    }
}

/// Result of one open-loop run.
pub struct OpenLoopRun<O> {
    pub records: Vec<Record>,
    /// Completed outcome per request, in request order.
    pub outcomes: Vec<Option<O>>,
    /// Submissions refused and requests that ended in a failure state.
    pub failures: Vec<(usize, String)>,
    /// Start of the run to the last observed completion.
    pub wall: Duration,
}

impl<O> OpenLoopRun<O> {
    pub fn worst_lateness_ns(&self) -> u64 {
        self.records
            .iter()
            .map(Record::lateness_ns)
            .max()
            .unwrap_or(0)
    }
}

/// Drive `n` requests at a fixed `interval` from the calling thread.
///
/// Between due times the generator polls every outstanding request and
/// sleeps at most `slice`, so completions are observed within about one
/// slice. After the last submission it keeps polling until every request
/// has finished or `drain_limit` has passed.
pub fn run<T, O>(
    n: usize,
    interval: Duration,
    slice: Duration,
    drain_limit: Duration,
    mut submit: impl FnMut(usize) -> Result<T, String>,
    mut poll: impl FnMut(&T) -> Poll<O>,
) -> OpenLoopRun<O> {
    let start = Instant::now();
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let mut records = vec![Record::default(); n];
    let mut outcomes: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let mut failures = Vec::new();
    let mut outstanding: Vec<(usize, T)> = Vec::new();

    let mut sweep = |outstanding: &mut Vec<(usize, T)>,
                     records: &mut [Record],
                     outcomes: &mut [Option<O>],
                     failures: &mut Vec<(usize, String)>| {
        outstanding.retain(|(i, ticket)| match poll(ticket) {
            Poll::Pending => true,
            Poll::Done(o) => {
                records[*i].done_ns = Some(ns(Instant::now()));
                outcomes[*i] = Some(o);
                false
            }
            Poll::Failed(why) => {
                failures.push((*i, why));
                false
            }
        });
    };

    for i in 0..n {
        let due = interval * i as u32;
        records[i].due_ns = due.as_nanos() as u64;
        loop {
            sweep(&mut outstanding, &mut records, &mut outcomes, &mut failures);
            let now = start.elapsed();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(slice));
        }
        records[i].submit_ns = ns(Instant::now());
        match submit(i) {
            Ok(t) => outstanding.push((i, t)),
            Err(why) => failures.push((i, why)),
        }
    }
    let drain_from = Instant::now();
    while !outstanding.is_empty() && drain_from.elapsed() < drain_limit {
        sweep(&mut outstanding, &mut records, &mut outcomes, &mut failures);
        if !outstanding.is_empty() {
            std::thread::sleep(slice);
        }
    }
    for (i, _) in outstanding {
        failures.push((i, "did not complete before the drain limit".into()));
    }
    let last_done = records.iter().filter_map(|r| r.done_ns).max().unwrap_or(0);
    OpenLoopRun {
        records,
        outcomes,
        failures,
        wall: Duration::from_nanos(last_done),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time() {
        let r = Record {
            due_ns: 1_000,
            submit_ns: 4_000,
            done_ns: Some(5_000),
        };
        assert_eq!(r.latency_ns(), Some(4_000));
        assert_eq!(r.lateness_ns(), 3_000);
        assert_eq!(Record::default().latency_ns(), None);
    }

    #[test]
    fn a_generator_stall_raises_latency_instead_of_hiding_it() {
        // Instant service; the submit of request 3 stalls the generator for
        // 30 ms. Requests 4.. were due every 2 ms during the stall, so their
        // latency (from due time) must include the time they were held
        // back, even though each one completed as soon as it was sent.
        let stall = Duration::from_millis(30);
        let run = run(
            8,
            Duration::from_millis(2),
            Duration::from_micros(100),
            Duration::from_secs(1),
            |i| {
                if i == 3 {
                    std::thread::sleep(stall);
                }
                Ok(i)
            },
            |&i| Poll::Done(i),
        );
        assert!(run.failures.is_empty());
        let lat = |i: usize| run.records[i].latency_ns().unwrap();
        let ms = 1_000_000;
        assert!(lat(0) < 10 * ms, "an unstalled request stays fast");
        // Request 4 was due at 8 ms and went out after the stall (~36 ms).
        assert!(lat(4) >= 25 * ms, "latency of request 4: {}", lat(4));
        assert!(run.records[4].lateness_ns() >= 25 * ms);
        assert!(run.worst_lateness_ns() >= 25 * ms);
        // Completion was immediate after submission: the whole latency is
        // the stall, which submit-time accounting would have reported as ~0.
        let after_submit = run.records[4].done_ns.unwrap() - run.records[4].submit_ns;
        assert!(after_submit < 5 * ms);
        assert_eq!(run.outcomes.iter().flatten().count(), 8);
    }

    #[test]
    fn failed_and_refused_requests_are_reported() {
        let run = run(
            4,
            Duration::from_micros(200),
            Duration::from_micros(50),
            Duration::from_millis(50),
            |i| if i == 1 { Err("refused".into()) } else { Ok(i) },
            |&i| {
                if i == 2 {
                    Poll::Failed("boom".into())
                } else {
                    Poll::<usize>::Done(i)
                }
            },
        );
        let mut failed: Vec<usize> = run.failures.iter().map(|(i, _)| *i).collect();
        failed.sort_unstable();
        assert_eq!(failed, vec![1, 2]);
        assert_eq!(run.outcomes.iter().flatten().count(), 2);
    }
}
