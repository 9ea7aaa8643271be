//! The simulation main loop.

use crate::event::EventId;
use crate::keyed::KeyedQueue;
use crate::time::{SimDuration, SimTime};

/// Why a call to [`Simulator::run_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    QueueDrained,
    /// The simulated clock reached the requested horizon.
    HorizonReached,
    /// The handler requested an early stop.
    Stopped,
    /// The event budget was exhausted (runaway-protection).
    BudgetExhausted,
}

/// A discrete-event simulator: a clock plus a future-event list. Events at the same
/// instant fire in the order they were scheduled.
///
/// The simulator is generic over the event payload type `E`; the domain layers
/// (`ssmcast-manet` and the protocol crates) define their own event enums. The engine
/// never inspects payloads — it only orders them in time.
#[derive(Debug)]
pub struct Simulator<E> {
    /// Unit keys: timestamp ties break on insertion order.
    queue: KeyedQueue<(), E>,
    now: SimTime,
    processed: u64,
    max_events: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Create a simulator with the clock at zero and no event budget.
    pub fn new() -> Self {
        Simulator {
            queue: KeyedQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            max_events: u64::MAX,
        }
    }

    /// Create a simulator pre-allocating queue space for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Simulator {
            queue: KeyedQueue::with_capacity(cap),
            now: SimTime::ZERO,
            processed: 0,
            max_events: u64::MAX,
        }
    }

    /// Limit the total number of events this simulator will process (runaway protection
    /// for property tests and fuzzing). The default is unlimited.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.max_events = budget;
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending (live) events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an event at an absolute time. Scheduling in the past is clamped to "now"
    /// (the event still fires, immediately after currently pending same-time events).
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        let at = at.max(self.now);
        self.queue.push(at, (), payload)
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.queue.push(self.now + delay, (), payload)
    }

    /// Cancel a pending event. Returns `true` if it had not fired yet.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop_next(&mut self) -> Option<(SimTime, E)> {
        let (t, (), payload) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue must never run backwards");
        self.now = t;
        self.processed += 1;
        Some((t, payload))
    }

    /// Timestamp of the next pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Run until the horizon, the queue drains, the budget is exhausted, or the handler
    /// returns `false`.
    ///
    /// The handler receives `(simulator, time, event)` and may schedule further events.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F) -> RunOutcome
    where
        F: FnMut(&mut Self, SimTime, E) -> bool,
    {
        loop {
            if self.processed >= self.max_events {
                return RunOutcome::BudgetExhausted;
            }
            let next = match self.queue.peek_time() {
                Some(t) => t,
                None => {
                    // Clock still advances to the horizon so periodic observers see the
                    // full window length.
                    self.now = self.now.max(horizon.min(SimTime::MAX));
                    return RunOutcome::QueueDrained;
                }
            };
            if next > horizon {
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            let (t, ev) = self.pop_next().expect("peeked event must pop");
            if !handler(self, t, ev) {
                return RunOutcome::Stopped;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
        let (t, ev) = sim.pop_next().unwrap();
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(ev, Ev::Tick(2));
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn run_until_horizon_leaves_future_events_pending() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        sim.schedule_at(SimTime::from_secs(10), Ev::Tick(2));
        let mut seen = Vec::new();
        let outcome = sim.run_until(SimTime::from_secs(5), |_, _, ev| {
            seen.push(ev);
            true
        });
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(seen, vec![Ev::Tick(1)]);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn run_until_drains_queue() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        let outcome = sim.run_until(SimTime::from_secs(100), |_, _, _| true);
        assert_eq!(outcome, RunOutcome::QueueDrained);
        assert_eq!(sim.now(), SimTime::from_secs(100), "clock advances to horizon on drain");
    }

    #[test]
    fn handler_can_stop_early() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Stop);
        sim.schedule_at(SimTime::from_secs(3), Ev::Tick(3));
        let outcome = sim.run_until(SimTime::MAX, |_, _, ev| ev != Ev::Stop);
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn handler_can_reschedule() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(0));
        let mut count = 0u32;
        sim.run_until(SimTime::from_secs(10), |s, t, _| {
            count += 1;
            if count < 5 {
                s.schedule_at(t + SimDuration::from_secs(1), Ev::Tick(count));
            }
            true
        });
        assert_eq!(count, 5);
    }

    #[test]
    fn event_budget_stops_runaway() {
        let mut sim = Simulator::new();
        sim.set_event_budget(100);
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(0));
        let outcome = sim.run_until(SimTime::MAX, |s, t, _| {
            // Self-perpetuating event storm.
            s.schedule_at(t + SimDuration::from_millis(1), Ev::Tick(0));
            true
        });
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(sim.events_processed(), 100);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        sim.pop_next();
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(2));
        let (t, _) = sim.pop_next().unwrap();
        assert_eq!(t, SimTime::from_secs(5), "past events fire at the current time");
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Simulator::new();
        let id = sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
        assert!(sim.cancel(id));
        let mut seen = Vec::new();
        sim.run_until(SimTime::MAX, |_, _, ev| {
            seen.push(ev);
            true
        });
        assert_eq!(seen, vec![Ev::Tick(2)]);
    }
}
