//! Boundary marks. The worker holds no clock: around every call into a
//! layer it writes a begin mark and an end mark to standard output and
//! flushes at once. The front end (`run.py`) timestamps each mark as it
//! arrives and builds every span and timing from them, so all of the
//! worker's outputs stay a function of its inputs.
//!
//! Protocol, one line per mark:
//!
//! ```text
//! B <name>          a span begins
//! E <name> <ops>    it ends, having done <ops> units of work
//! R <json>          the command is done; its result
//! ```

use std::io::Write;

enum Sink {
    Stdout(std::io::Stdout),
    #[cfg(test)]
    Record(Vec<String>),
}

pub struct Marks {
    sink: Sink,
}

impl Marks {
    /// Marks for the front end, on standard output.
    pub fn stdout() -> Marks {
        Marks {
            sink: Sink::Stdout(std::io::stdout()),
        }
    }

    /// Marks kept in memory, for tests.
    #[cfg(test)]
    pub fn recording() -> Marks {
        Marks {
            sink: Sink::Record(Vec::new()),
        }
    }

    #[cfg(test)]
    pub fn recorded(&self) -> &[String] {
        match &self.sink {
            Sink::Record(lines) => lines,
            Sink::Stdout(_) => &[],
        }
    }

    pub fn line(&mut self, line: &str) {
        match &mut self.sink {
            Sink::Stdout(out) => {
                let mut out = out.lock();
                out.write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .and_then(|()| out.flush())
                    .expect("the front end reads every mark until the worker exits");
            }
            #[cfg(test)]
            Sink::Record(lines) => lines.push(line.to_string()),
        }
    }

    pub fn begin(&mut self, name: &str) {
        self.line(&format!("B {name}"));
    }

    pub fn end(&mut self, name: &str, ops: u64) {
        self.line(&format!("E {name} {ops}"));
    }

    /// Runs `body` between a begin and an end mark named `name`; `body`
    /// does `ops` units of work and may mark spans of its own.
    pub fn span<T>(&mut self, name: &str, ops: u64, body: impl FnOnce(&mut Marks) -> T) -> T {
        self.begin(name);
        let out = body(self);
        self.end(name, ops);
        out
    }
}
