//! Workload traces: record a request stream once, replay it anywhere.
//!
//! The paper's experiments hinge on feeding the *identical* request
//! stream to every algorithm. Inside one process the generator's
//! determinism guarantees that; a trace file extends the guarantee across
//! processes, machines and repository versions — the emulator equivalent
//! of publishing a benchmark's input data. The format is a line-oriented
//! text file (one request per line) so traces diff cleanly and can be
//! written by hand:
//!
//! ```text
//! # hdhash-trace v1 name=my-workload
//! join 0
//! join 1
//! lookup 12345
//! leave 0
//! ```

use hdhash_table::{RequestKey, ServerId};

use crate::module::{ExecutionStats, HashTableModule};
use crate::request::{Request, Response};

/// Magic first-line prefix of the trace text format.
const HEADER_PREFIX: &str = "# hdhash-trace v1";

/// A recorded request stream with a human-readable name.
///
/// # Examples
///
/// ```
/// use hdhash_emulator::{Generator, Trace, Workload};
///
/// let requests = Generator::new(Workload {
///     initial_servers: 4,
///     lookups: 16,
///     ..Workload::default()
/// })
/// .requests();
/// let trace = Trace::new("quick", requests);
/// let text = trace.to_text();
/// let back = Trace::from_text(&text)?;
/// assert_eq!(back, trace);
/// # Ok::<(), hdhash_emulator::trace::TraceParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    requests: Vec<Request>,
}

impl Trace {
    /// Wraps a request stream under a name.
    ///
    /// # Panics
    ///
    /// Panics if `name` contains whitespace or is empty (names embed in
    /// the single-line header).
    #[must_use]
    pub fn new<S: Into<String>>(name: S, requests: Vec<Request>) -> Self {
        let name = name.into();
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "trace names must be non-empty and whitespace-free"
        );
        Self { name, requests }
    }

    /// The trace name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The recorded requests.
    #[must_use]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of recorded requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Renders the trace in the line-oriented text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(16 * self.requests.len() + 64);
        out.push_str(HEADER_PREFIX);
        out.push_str(" name=");
        out.push_str(&self.name);
        out.push('\n');
        for request in &self.requests {
            match request {
                Request::Join(s) => {
                    out.push_str("join ");
                    out.push_str(&s.get().to_string());
                }
                Request::Leave(s) => {
                    out.push_str("leave ");
                    out.push_str(&s.get().to_string());
                }
                Request::Lookup(k) => {
                    out.push_str("lookup ");
                    out.push_str(&k.get().to_string());
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses a trace from the text format.
    ///
    /// Blank lines and `#`-comment lines after the header are skipped.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] naming the offending line when the
    /// header is missing or a line is not a valid request.
    pub fn from_text(text: &str) -> Result<Self, TraceParseError> {
        let mut lines = text.lines().enumerate();
        let name = match lines.next() {
            Some((_, first)) if first.starts_with(HEADER_PREFIX) => first
                .split_once("name=")
                .map(|(_, n)| n.trim().to_string())
                .filter(|n| !n.is_empty())
                .ok_or(TraceParseError::MissingName)?,
            _ => return Err(TraceParseError::MissingHeader),
        };
        let mut requests = Vec::new();
        for (index, line) in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (directive, argument) =
                line.split_once(' ').ok_or(TraceParseError::MalformedLine { line: index + 1 })?;
            let value: u64 = argument
                .trim()
                .parse()
                .map_err(|_| TraceParseError::InvalidNumber { line: index + 1 })?;
            requests.push(match directive {
                "join" => Request::Join(ServerId::new(value)),
                "leave" => Request::Leave(ServerId::new(value)),
                "lookup" => Request::Lookup(RequestKey::new(value)),
                _ => return Err(TraceParseError::UnknownDirective { line: index + 1 }),
            });
        }
        Ok(Self { name, requests })
    }

    /// Replays the trace on a hash table module, returning the responses
    /// and execution statistics.
    pub fn replay(&self, module: &mut HashTableModule) -> (Vec<Response>, ExecutionStats) {
        module.execute(&self.requests)
    }
}

/// Errors produced when parsing the trace text format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceParseError {
    /// The first line is not the `# hdhash-trace v1` header.
    MissingHeader,
    /// The header carries no `name=` field.
    MissingName,
    /// A request line has no argument.
    MalformedLine {
        /// 1-based line number.
        line: usize,
    },
    /// A request line's argument is not an unsigned integer.
    InvalidNumber {
        /// 1-based line number.
        line: usize,
    },
    /// A request line starts with an unrecognized directive.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
    },
}

impl core::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceParseError::MissingHeader => f.write_str("missing `# hdhash-trace v1` header"),
            TraceParseError::MissingName => f.write_str("header carries no name= field"),
            TraceParseError::MalformedLine { line } => {
                write!(f, "line {line} has no argument")
            }
            TraceParseError::InvalidNumber { line } => {
                write!(f, "line {line} argument is not an unsigned integer")
            }
            TraceParseError::UnknownDirective { line } => {
                write!(f, "line {line} starts with an unknown directive")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::AlgorithmKind;
    use crate::generator::{Generator, Workload};

    fn sample_trace() -> Trace {
        let requests = Generator::new(Workload {
            initial_servers: 8,
            lookups: 50,
            ..Workload::default()
        })
        .requests();
        Trace::new("sample", requests)
    }

    #[test]
    fn text_round_trip_preserves_everything() {
        let trace = sample_trace();
        let parsed = Trace::from_text(&trace.to_text()).expect("own output parses");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.name(), "sample");
        assert_eq!(parsed.len(), 58);
        assert!(!parsed.is_empty());
    }

    #[test]
    fn hand_written_traces_parse() {
        let text = "# hdhash-trace v1 name=hand\n\
                    join 0\n\
                    \n\
                    # a comment\n\
                    lookup 42\n\
                    leave 0\n";
        let trace = Trace::from_text(text).expect("valid trace");
        assert_eq!(
            trace.requests(),
            &[
                Request::Join(ServerId::new(0)),
                Request::Lookup(RequestKey::new(42)),
                Request::Leave(ServerId::new(0)),
            ]
        );
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert_eq!(Trace::from_text("join 0\n"), Err(TraceParseError::MissingHeader));
        assert_eq!(Trace::from_text(""), Err(TraceParseError::MissingHeader));
        assert_eq!(
            Trace::from_text("# hdhash-trace v1\njoin 0\n"),
            Err(TraceParseError::MissingName)
        );
        let headered = |body: &str| format!("# hdhash-trace v1 name=t\n{body}");
        assert_eq!(
            Trace::from_text(&headered("join\n")),
            Err(TraceParseError::MalformedLine { line: 2 })
        );
        assert_eq!(
            Trace::from_text(&headered("join zero\n")),
            Err(TraceParseError::InvalidNumber { line: 2 })
        );
        assert_eq!(
            Trace::from_text(&headered("join 0\nfrobnicate 1\n")),
            Err(TraceParseError::UnknownDirective { line: 3 })
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(TraceParseError::MissingHeader.to_string().contains("header"));
        assert!(TraceParseError::UnknownDirective { line: 7 }.to_string().contains("line 7"));
    }

    #[test]
    fn replay_is_deterministic_across_algorithms() {
        let trace = sample_trace();
        for kind in [AlgorithmKind::Consistent, AlgorithmKind::Hd] {
            let run = |t: &Trace| {
                let mut module = HashTableModule::new(kind.build(8));
                let (responses, stats) = t.replay(&mut module);
                assert_eq!(stats.failures, 0, "{kind}");
                responses
            };
            assert_eq!(run(&trace), run(&trace), "{kind}");
        }
    }

    #[test]
    fn replay_of_parsed_trace_matches_original() {
        // The full loop: record -> serialize -> parse -> replay gives the
        // same assignments as replaying the in-memory original.
        let trace = sample_trace();
        let parsed = Trace::from_text(&trace.to_text()).expect("parses");
        let mut a = HashTableModule::new(AlgorithmKind::Hd.build(8));
        let mut b = HashTableModule::new(AlgorithmKind::Hd.build(8));
        assert_eq!(trace.replay(&mut a).0, parsed.replay(&mut b).0);
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn whitespace_names_are_rejected() {
        let _ = Trace::new("two words", Vec::new());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arbitrary_request() -> impl Strategy<Value = Request> {
            prop_oneof![
                any::<u64>().prop_map(|v| Request::Join(ServerId::new(v))),
                any::<u64>().prop_map(|v| Request::Leave(ServerId::new(v))),
                any::<u64>().prop_map(|v| Request::Lookup(RequestKey::new(v))),
            ]
        }

        proptest! {
            #[test]
            fn any_request_stream_round_trips(
                requests in prop::collection::vec(arbitrary_request(), 0..200)
            ) {
                let trace = Trace::new("prop", requests);
                let parsed = Trace::from_text(&trace.to_text()).expect("own output parses");
                prop_assert_eq!(parsed, trace);
            }

            #[test]
            fn parser_never_panics_on_arbitrary_text(text in "\\PC{0,300}") {
                // Any input is either parsed or rejected with an error —
                // no panic, no UB.
                let _ = Trace::from_text(&text);
            }
        }
    }
}
