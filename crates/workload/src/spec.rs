use hp_manycore::WorkPoint;

/// The work one thread performs during one barrier-separated phase.
///
/// `instructions == 0` means the thread is idle for the entire phase
/// (e.g. a slave thread during a serial master phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseWork {
    /// Instructions to retire in this phase (0 = idle).
    pub instructions: u64,
    /// The interval characteristics while executing them.
    pub work: WorkPoint,
}

impl PhaseWork {
    /// An idle phase entry.
    pub fn idle() -> Self {
        PhaseWork {
            instructions: 0,
            work: WorkPoint::idle(),
        }
    }

    /// A busy phase entry.
    pub fn busy(instructions: u64, work: WorkPoint) -> Self {
        PhaseWork { instructions, work }
    }
}

/// One barrier-separated phase of a multi-threaded task.
///
/// The phase ends when *every* thread has retired its instructions;
/// early finishers idle-wait at the barrier (consuming idle power), which
/// is how the master–slave alternation of *blackscholes* manifests
/// thermally.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPhase {
    per_thread: Vec<PhaseWork>,
}

impl TaskPhase {
    /// Creates a phase from per-thread work entries.
    ///
    /// # Panics
    ///
    /// Panics if `per_thread` is empty.
    pub fn new(per_thread: Vec<PhaseWork>) -> Self {
        assert!(!per_thread.is_empty(), "a phase needs at least one thread");
        TaskPhase { per_thread }
    }

    /// Work entry of thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn thread(&self, t: usize) -> &PhaseWork {
        &self.per_thread[t]
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.per_thread.len()
    }

    /// Total instructions across all threads in this phase.
    pub fn total_instructions(&self) -> u64 {
        self.per_thread.iter().map(|w| w.instructions).sum()
    }
}

/// A complete multi-threaded task: an ordered sequence of barrier-separated
/// phases, all with the same thread count.
///
/// # Example
///
/// ```
/// use hp_manycore::WorkPoint;
/// use hp_workload::{PhaseWork, TaskPhase, TaskSpec};
///
/// let spec = TaskSpec::new(
///     "two-phase",
///     vec![
///         TaskPhase::new(vec![
///             PhaseWork::busy(1_000_000, WorkPoint::compute_bound()),
///             PhaseWork::idle(),
///         ]),
///         TaskPhase::new(vec![
///             PhaseWork::idle(),
///             PhaseWork::busy(2_000_000, WorkPoint::memory_bound()),
///         ]),
///     ],
/// );
/// assert_eq!(spec.thread_count(), 2);
/// assert_eq!(spec.total_instructions(), 3_000_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    name: String,
    phases: Vec<TaskPhase>,
}

impl TaskSpec {
    /// Creates a task from its phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or thread counts differ across phases.
    pub fn new(name: impl Into<String>, phases: Vec<TaskPhase>) -> Self {
        assert!(!phases.is_empty(), "a task needs at least one phase");
        let threads = phases[0].thread_count();
        assert!(
            phases.iter().all(|p| p.thread_count() == threads),
            "all phases must have the same thread count"
        );
        TaskSpec {
            name: name.into(),
            phases,
        }
    }

    /// The task's (benchmark) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The barrier-separated phases, in execution order.
    pub fn phases(&self) -> &[TaskPhase] {
        &self.phases
    }

    /// Number of threads (uniform across phases).
    pub fn thread_count(&self) -> usize {
        self.phases[0].thread_count()
    }

    /// Total instructions across all threads and phases.
    pub fn total_instructions(&self) -> u64 {
        self.phases.iter().map(|p| p.total_instructions()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase() -> TaskSpec {
        TaskSpec::new(
            "t",
            vec![
                TaskPhase::new(vec![
                    PhaseWork::busy(100, WorkPoint::compute_bound()),
                    PhaseWork::idle(),
                ]),
                TaskPhase::new(vec![
                    PhaseWork::busy(50, WorkPoint::compute_bound()),
                    PhaseWork::busy(200, WorkPoint::memory_bound()),
                ]),
            ],
        )
    }

    #[test]
    fn accounting() {
        let t = two_phase();
        assert_eq!(t.thread_count(), 2);
        assert_eq!(t.total_instructions(), 350);
        assert_eq!(t.phases()[0].total_instructions(), 100);
        assert_eq!(t.phases()[1].thread(1).instructions, 200);
    }

    #[test]
    fn idle_entries_are_idle() {
        let t = two_phase();
        assert!(t.phases()[0].thread(1).work.is_idle());
        assert_eq!(t.phases()[0].thread(1).instructions, 0);
    }

    #[test]
    #[should_panic(expected = "same thread count")]
    fn mismatched_thread_counts_panic() {
        TaskSpec::new(
            "bad",
            vec![
                TaskPhase::new(vec![PhaseWork::idle()]),
                TaskPhase::new(vec![PhaseWork::idle(), PhaseWork::idle()]),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_panic() {
        TaskSpec::new("bad", vec![]);
    }
}
