//! Inference requests and priority classes.

use polca_sim::SimTime;

/// Workload priority (Table 5/6).
///
/// "LLM inference pricing tiers naturally bucket workloads into
/// priorities" (§6.2): POLCA proactively caps low-priority work and
/// touches high-priority work only when absolutely necessary.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Priority {
    /// Latency-tolerant tier (e.g. summarization, free tier).
    Low,
    /// Latency-sensitive tier (e.g. search, paid tier).
    High,
}

impl Priority {
    /// Both priorities, low first.
    pub const fn all() -> [Priority; 2] {
        [Priority::Low, Priority::High]
    }

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            Priority::Low => "Low",
            Priority::High => "High",
        }
    }
}

/// One inference request as generated by the trace layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique request id.
    pub id: u64,
    /// Arrival time at the cluster front-end.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub input_tokens: u32,
    /// Tokens to generate.
    pub output_tokens: u32,
    /// Priority class.
    pub priority: Priority,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `input_tokens` or `output_tokens` is zero.
    pub fn new(
        id: u64,
        arrival: SimTime,
        input_tokens: u32,
        output_tokens: u32,
        priority: Priority,
    ) -> Self {
        assert!(input_tokens > 0, "input_tokens must be positive");
        assert!(output_tokens > 0, "output_tokens must be positive");
        Request {
            id,
            arrival,
            input_tokens,
            output_tokens,
            priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "output_tokens")]
    fn zero_output_rejected() {
        let _ = Request::new(1, SimTime::ZERO, 10, 0, Priority::Low);
    }

    #[test]
    fn priority_ordering_low_before_high() {
        assert!(Priority::Low < Priority::High);
        assert_eq!(Priority::all(), [Priority::Low, Priority::High]);
        assert_eq!(Priority::Low.name(), "Low");
    }
}
