//! In-memory span recorder for the traced runs.
//!
//! Each span carries a name, start and end (nanoseconds since the
//! tracer was created), the span that was open when it started (its
//! parent), an argument (a round index or an item index) and the run id
//! shared by every span of one traced run. Spans stay in memory and are
//! written out as one TSV file when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `core.round_start`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round or item index the call worked on.
    pub arg: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use = "a span stays open until passed to Tracer::exit"]
pub struct Open(usize);

/// The recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose spans all carry `run_id`.
    pub fn new(run_id: String) -> Self {
        Tracer {
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span, nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, arg: u64) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            arg,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: Open) {
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, arg: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, arg);
        let out = f();
        self.exit(open);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of the spans named `name` whose argument passes
    /// `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.arg))
            .map(Span::secs)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name, |_| true).iter().sum()
    }

    /// Writes the spans as TSV (`run`, `id`, `parent`, `name`, `arg`,
    /// `start_ns`, `end_ns`; parent `-` for a root) to `path`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "run\tid\tparent\tname\targ\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                self.run_id, s.name, s.arg, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Writes the trace under `perfbench/traces/` (relative to the working
/// directory, the checkout root) and logs where it went.
pub fn save(tracer: &Tracer, file_stem: &str) {
    let path = Path::new("perfbench")
        .join("traces")
        .join(format!("{file_stem}.tsv"));
    match tracer.write_tsv(&path) {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents() {
        let mut t = Tracer::new("t".into());
        let outer = t.enter("outer", 1);
        t.span("inner", 2, || ());
        t.exit(outer);
        t.span("outer", 3, || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(t.durations("outer", |a| a == 3).len(), 1);
    }
}
