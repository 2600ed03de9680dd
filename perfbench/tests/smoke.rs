//! Smoke test at tiny sizes: the answer table against explicit-state
//! enumeration, the answer check itself, and every workload's printed
//! metric names against `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use bfvr_reach::EngineKind;
use bfvr_sim::OrderHeuristic;
use perfbench::cells::{expected_table, generate, run_cell, Cell, Workload};
use perfbench::explicit::count_reachable;

/// A minimal JSON value, enough for the benchmark's own files.
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key `{key}`")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected `{}` at {}", c as char, self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    w => panic!("bad literal {w}"),
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = Parser::parse(&std::fs::read_to_string(path).unwrap());
    let Json::Arr(items) = bench.get(list) else {
        panic!("{list} is not a list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn expected_table_matches_explicit_enumeration() {
    for (spec, states) in expected_table() {
        let net = generate(spec).unwrap();
        assert_eq!(count_reachable(&net).unwrap(), states, "{spec}");
    }
}

#[test]
fn a_wrong_count_fails_the_cell() {
    let cell = Cell {
        id: 0,
        spec: "johnson:4",
        engine: EngineKind::Bfv,
        order: OrderHeuristic::DfsFanin,
        sift: false,
        expected: 9,
    };
    let err = run_cell(&cell).columns.unwrap_err();
    assert!(err.contains("expected 9"), "{err}");
}

#[test]
fn every_workload_prints_the_metrics_benchmark_json_declares() {
    let workloads = Parser::parse(
        &std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .unwrap(),
    );
    let Json::Arr(listed) = workloads.get("workloads") else {
        panic!("workloads is not a list");
    };
    let listed: Vec<&str> = listed.iter().map(|w| w.get("name").str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);

    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(list);
        for w in Workload::ALL {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", w.name(), "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--tiny"])
                .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
                .output()
                .unwrap();
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{} trace {trace}:\n{stdout}",
                w.name()
            );
            let result = Parser::parse(stdout.lines().last().unwrap());
            assert!(matches!(result.get("correct"), Json::Bool(true)));
            assert!(matches!(result.get("failed"), Json::Num(n) if *n == 0.0));
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is not an object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect();
            assert_eq!(got, want, "{} trace {trace}", w.name());
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "warp",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "bfv-wide", "--seed", "1", "--seconds", "1"],
        vec![
            "--workload",
            "bfv-wide",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
