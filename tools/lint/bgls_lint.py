#!/usr/bin/env python3
"""bgls_lint: repo-specific determinism and input-hygiene checker.

BGLS's headline guarantee is bit-identical results for a given seed —
across thread counts, across re-runs, across the daemon's result cache
and journal replay. The generic toolchain (compiler warnings,
clang-tidy, sanitizers) cannot see that contract, so this checker
enforces the three repo rules that protect it at the token level:

  nondeterministic-source
      std::random_device, time()/std::time, and the std::chrono clocks
      mint values that differ run to run. They are banned outside the
      allowlisted timing/telemetry files: sampling must draw all of its
      entropy from the explicitly seeded Rng (util/rng.h), and nothing
      a run's *results* contain may come from a clock.

  unordered-serialization
      Iterating an unordered container produces a hash-order walk, and
      libstdc++'s hash order is salt- and size-dependent. In the files
      that serialize results for the wire, the cache, or the journal
      (service/report, result_cache, journal, protocol), any
      unordered_map/unordered_set is flagged: byte-identical output
      needs an ordered walk (std::map, or sort-before-emit behind an
      allow annotation).

  naked-numeric-parse
      std::sto*/ato*/strto* accept trailing garbage, saturate, or
      invoke UB on out-of-range input, and each call site re-invents
      error handling. All numeric parsing of untrusted text goes
      through util/parse.h; the only file allowed to spell a raw parse
      (std::from_chars included) is its implementation, util/parse.cpp.

Any finding can be suppressed where it is justified with a trailing or
preceding-line annotation naming the rule:

    std::unordered_map<K, V> index_;  // bgls-lint: allow(unordered-serialization)

Usage:
    bgls_lint.py [--root DIR]     scan the repo tree (exit 1 on findings)
    bgls_lint.py --self-test      run against the seeded fixtures
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --- Rule table -----------------------------------------------------------

NONDET_RE = re.compile(
    r"std\s*::\s*random_device|\brandom_device\b"
    r"|std\s*::\s*time\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
    r"|\b(?:system|steady|high_resolution)_clock\b"
)

UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")

NAKED_PARSE_RE = re.compile(
    r"\b(?:std\s*::\s*)?"
    r"(?:stod|stof|stold|stoi|stol|stoll|stoul|stoull"
    r"|atoi|atol|atoll|atof"
    r"|strtol|strtoll|strtoul|strtoull|strtod|strtof|strtold"
    r"|from_chars|sscanf)\s*\("
)

MESSAGES = {
    "nondeterministic-source":
        "clock/random_device value outside the timing allowlist — "
        "results must derive from the seeded Rng only",
    "unordered-serialization":
        "unordered container in a result-serializing file — hash order "
        "is not deterministic; use std::map or sort before emitting",
    "naked-numeric-parse":
        "raw numeric parse — use util/parse.h "
        "(try_parse_double/i64/u64) instead",
}

# nondeterministic-source: files whose whole job is wall-clock timing or
# telemetry — their clock reads never reach a sampled result.
NONDET_ALLOWED_PREFIXES = (
    "src/util/timing.h",        # the Timer/Stopwatch helpers
    "src/util/cancellation.h",  # deadline math
    "src/obs/",                 # telemetry: metrics timestamps, spans
    "src/service/scheduler",    # queue-wait / runtime accounting
    "src/api/session.",         # per-run elapsed-seconds reporting
    "src/statevector/kernels.cpp",  # kernel progress heartbeat
    "tests/",                   # timing assertions, stress loops
    "bench/",                   # benchmarks measure time by definition
)

# unordered-serialization: only the result-determining serialization
# paths; everywhere else unordered containers are encouraged.
SERIALIZATION_PREFIXES = (
    "src/service/report.",
    "src/service/result_cache.",
    "src/service/journal.",
    "src/service/protocol.",
)

# naked-numeric-parse: the checked-parse implementation itself.
PARSE_IMPL_FILES = ("src/util/parse.cpp",)

SCAN_ROOTS = ("src", "tools", "tests", "bench", "examples")
SCAN_SUFFIXES = (".cpp", ".h", ".hpp", ".cc", ".inc")
# The lint's own violation fixtures must not fail the tree scan.
EXCLUDED_PREFIXES = ("tools/lint/fixtures/",)

ALLOW_RE = re.compile(r"bgls-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


class Finding:
    def __init__(self, path: str, line: int, rule: str):
        self.path = path
        self.line = line
        self.rule = rule

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {MESSAGES[self.rule]}"


def strip_code_line(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Returns `line` with comments and string/char literals blanked
    (replaced by spaces, so column math stays meaningful), plus the
    block-comment state carried into the next line."""
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                out.append(" " * (n - i))
                i = n
            else:
                out.append(" " * (end + 2 - i))
                i = end + 2
                in_block_comment = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            out.append(" " * (n - i))
            i = n
        elif c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            out.append("  ")
            i += 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == quote:
                    j += 1
                    break
                j += 1
            j = min(j, n)
            out.append(quote + " " * max(0, j - i - 2) +
                       (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out), in_block_comment


def allows_on(raw_line: str) -> set[str]:
    m = ALLOW_RE.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def path_matches(rel: str, prefixes: tuple[str, ...]) -> bool:
    return any(rel.startswith(p) for p in prefixes)


def checks_for(rel: str) -> list[tuple[str, re.Pattern[str]]]:
    checks = []
    if not path_matches(rel, NONDET_ALLOWED_PREFIXES):
        checks.append(("nondeterministic-source", NONDET_RE))
    if path_matches(rel, SERIALIZATION_PREFIXES):
        checks.append(("unordered-serialization", UNORDERED_RE))
    if rel not in PARSE_IMPL_FILES:
        checks.append(("naked-numeric-parse", NAKED_PARSE_RE))
    return checks


def scan_text(text: str, rel: str) -> list[Finding]:
    """Scans one file's contents as if it lived at tree path `rel`."""
    checks = checks_for(rel)
    if not checks:
        return []
    raw_lines = text.splitlines()
    findings: list[Finding] = []
    in_block = False
    for lineno, raw in enumerate(raw_lines, start=1):
        code, in_block = strip_code_line(raw, in_block)
        if not code.strip():
            continue
        hit_rules = [rule for rule, rx in checks if rx.search(code)]
        if not hit_rules:
            continue
        allowed = allows_on(raw)
        if lineno >= 2:
            allowed |= allows_on(raw_lines[lineno - 2])
        for rule in hit_rules:
            if rule not in allowed:
                findings.append(Finding(rel, lineno, rule))
    return findings


def scan_tree(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    for top in SCAN_ROOTS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SCAN_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if path_matches(rel, EXCLUDED_PREFIXES):
                continue
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError as err:
                print(f"bgls_lint: cannot read {rel}: {err}",
                      file=sys.stderr)
                continue
            findings.extend(scan_text(text, rel))
    return findings


# --- Self-test ------------------------------------------------------------
#
# Each fixture seeds violations and suppressions. Expectations are
# encoded in the fixture itself: `// ... bgls-lint: expect(<rule>)` on
# every line that must be flagged, and a first-line marker
# `bgls-lint-fixture-path: <pretend/tree/path>` so path-scoped rules
# apply as they would in-tree. The self-test fails if any expected line
# is not flagged or any unexpected line is.

EXPECT_RE = re.compile(r"bgls-lint:\s*expect\(([a-z-]+)\)")


def self_test(root: Path) -> int:
    fixture_dir = root / "tools/lint/fixtures"
    fixtures = [f for f in sorted(fixture_dir.glob("*"))
                if f.suffix in SCAN_SUFFIXES]
    if not fixtures:
        print("bgls_lint self-test: no fixtures found", file=sys.stderr)
        return 2
    failures = 0
    for fixture in fixtures:
        text = fixture.read_text(encoding="utf-8")
        m = re.search(r"bgls-lint-fixture-path:\s*(\S+)", text)
        pretend = m.group(1) if m else f"src/fixture/{fixture.name}"

        expected: set[tuple[int, str]] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            em = EXPECT_RE.search(raw)
            if em:
                expected.add((lineno, em.group(1)))

        actual = {(f.line, f.rule) for f in scan_text(text, pretend)}
        for lineno, rule in sorted(expected - actual):
            print(f"self-test FAIL {fixture.name}:{lineno}: "
                  f"expected [{rule}] was not reported")
            failures += 1
        for lineno, rule in sorted(actual - expected):
            print(f"self-test FAIL {fixture.name}:{lineno}: "
                  f"unexpected [{rule}]")
            failures += 1
    if failures:
        print(f"bgls_lint self-test: {failures} failure(s)")
        return 1
    print(f"bgls_lint self-test: {len(fixtures)} fixture(s) OK")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bgls_lint.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above "
                             "this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-fixture self-test")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parents[2]
    if not (root / "src").is_dir():
        print(f"bgls_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(root)

    findings = scan_tree(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"bgls_lint: {len(findings)} finding(s)")
        return 1
    print("bgls_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
