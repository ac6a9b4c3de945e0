#!/usr/bin/env python3
"""svard_lint: repo-invariant linter for the svard tree.

Enforces invariants that the compiler cannot see and that earlier PRs
established by hand:

  defense-no-node-maps   Node-based maps (std::map / std::unordered_map)
                         are banned in src/defense/: defense hot paths
                         (onActivate and friends) moved to FlatTable /
                         dense arrays for determinism and speed, and a
                         map reintroduced "just for setup" has a way of
                         creeping into the per-activation path.
  no-wallclock           rand()/std::random_device and the std::chrono
                         wall/monotonic clocks are banned in src/ except
                         where timing is observability-only: simulation
                         results must be a pure function of (spec, seed)
                         via common/rng.h, or sweeps stop being
                         reproducible.
  raw-io-fault-points    Raw write()/fwrite()/rename() in src/io/ must
                         route through io/retry.cc's registered
                         fault-injection wrappers (or carry an explicit
                         allow next to a faults::check point) so the
                         crash-tolerance suite can reach every
                         durability path.
  metric-init-only       obs:: metric registration must be a
                         `static const obs::MetricId` initializer
                         (function-local static = once, on first use);
                         re-registering per call would take the registry
                         lock on hot paths and can resize tables
                         mid-sweep.
  include-guard          Every header under src/ carries the canonical
                         guard SVARD_<DIR>_<NAME>_H; duplicated or stale
                         guards silently drop declarations.
  example-in-ci          Every examples/*.cpp is named in
                         .github/workflows/ci.yml as ./build/bin/<name>:
                         an example stays only while a CI step runs it,
                         so demo programs that nothing runs cannot pile
                         up again.
  env-knob-documented    Every SVARD_* knob read through envInt/envStr/
                         std::getenv under src/ or bench/ is named in
                         README.md: a knob nobody can find is an option
                         nobody can use, or retire.
  src-has-caller         Every namespace-scope function a src/ header
                         declares is called from src/ outside its own
                         .cc (its header counts), or from bench/,
                         benchmark/ or examples/: src/ holds what the
                         figures, tools and svard_bench run, and a
                         function only tests call belongs in tests/ or
                         on the allowlist with its reason. Members and
                         macros are out of scope; the scan is by name.

Escapes, in order of preference:

  1. Inline, same line or the line above the finding:
         // svard-lint: allow(<rule-id>) <reason>
  2. Per-rule path allowlist with rationale: tools/svard_lint_allow.txt
     (src-has-caller entries name one function: <header>:<name>).
     A whole-tree run reports every entry that excuses no finding.

Usage:
    tools/svard_lint.py               lint src/, bench/ and examples/
                                      (exit 1 on findings)
    tools/svard_lint.py FILE...       lint specific files
    tools/svard_lint.py --self-test   run the fixture suite
    tools/svard_lint.py --list-rules  print the rule table

No compiler, no build tree: a full-tree run is a few hundred
milliseconds, cheap enough for CI and pre-commit alike.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import re
import sys
from dataclasses import dataclass, field

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST_PATH = os.path.join(REPO, "tools", "svard_lint_allow.txt")
ALLOW_RE = re.compile(r"svard-lint:\s*allow\(([a-z0-9-]+)\)")
CI_PATH = os.path.join(REPO, ".github", "workflows", "ci.yml")
README_PATH = os.path.join(REPO, "README.md")
# What example-in-ci and env-knob-documented match against: ci.yml and
# README.md, read on first use; --self-test installs FIXTURE_CI and
# FIXTURE_README instead.
_ci_text: str | None = None
_readme_text: str | None = None
# Where src-has-caller looks for callers: repo-relative path -> the
# names used in each file under CALLER_TREES, read on first use;
# --self-test installs the names of FIXTURE_CALLERS instead.
CALLER_TREES = ("src", "bench", "benchmark", "examples")
_caller_names: dict[str, set[str]] | None = None
# A name as used by a caller: a call, an address or a qualified name,
# but not `x.name(`/`p->name(`, a member of something else.
USE_RE = re.compile(r"(?<![\w.>])([A-Za-z_]\w*)")


@dataclass
class Finding:
    rule: str
    path: str       # repo-relative
    line: int       # 1-based
    message: str
    symbol: str = ""  # src-has-caller: the function, for the allowlist

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Rule:
    id: str
    paths: list[str]          # repo-relative fnmatch globs
    message: str
    pattern: re.Pattern | None = None
    exts: tuple[str, ...] = (".h", ".cc")
    # Custom per-file check; receives (rule, relpath, raw_lines,
    # code_lines) and yields Findings. When set, `pattern` is unused.
    check: object = None

    def applies_to(self, relpath: str) -> bool:
        if not relpath.endswith(self.exts):
            return False
        return any(fnmatch.fnmatch(relpath, g) for g in self.paths)


def strip_comments(lines: list[str]) -> list[str]:
    """Blank out // and /* */ comment text (same line count), so rules
    match code, not prose about code. String literals are not parsed —
    the banned tokens don't plausibly appear inside them."""
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            buf.append(line[i])
            i += 1
        out.append("".join(buf))
    return out


def pattern_check(rule: Rule, relpath: str, raw: list[str],
                  code: list[str]):
    for idx, line in enumerate(code):
        if rule.pattern.search(line):
            yield Finding(rule.id, relpath, idx + 1, rule.message)


def metric_init_check(rule: Rule, relpath: str, raw: list[str],
                      code: list[str]):
    """Registration must be the initializer of a `static const
    obs::MetricId` (the statement may wrap, so look back two lines)."""
    decl = re.compile(r"static\s+const\s+obs::MetricId\b")
    for idx, line in enumerate(code):
        if not rule.pattern.search(line):
            continue
        window = "".join(code[max(0, idx - 2): idx + 1])
        if not decl.search(window):
            yield Finding(rule.id, relpath, idx + 1, rule.message)


def include_guard_check(rule: Rule, relpath: str, raw: list[str],
                        code: list[str]):
    stem = relpath[len("src/"):-len(".h")]
    expect = "SVARD_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H"
    ifndef = re.compile(r"^\s*#\s*ifndef\s+(\S+)")
    for idx, line in enumerate(code):
        m = ifndef.match(line)
        if m is None:
            continue
        if m.group(1) != expect:
            yield Finding(rule.id, relpath, idx + 1,
                          f"include guard is '{m.group(1)}', canonical "
                          f"form is '{expect}'")
        # Only the first #ifndef is the guard; later ones are nested
        # conditionals.
        break
    else:
        if any("#pragma once" in l for l in code):
            yield Finding(rule.id, relpath, 1,
                          f"uses #pragma once; this tree standardizes on "
                          f"the guard '{expect}'")
        else:
            yield Finding(rule.id, relpath, 1,
                          f"missing include guard '{expect}'")


def example_in_ci_check(rule: Rule, relpath: str, raw: list[str],
                        code: list[str]):
    global _ci_text
    if _ci_text is None:
        with open(CI_PATH, encoding="utf-8") as f:
            _ci_text = f.read()
    name = os.path.splitext(os.path.basename(relpath))[0]
    # Named as a path component (./build/bin/<name>), so "run" in a
    # step's `run:` key or a longer binary name does not count.
    if not re.search(rf"/{re.escape(name)}(?![\w.-])", _ci_text):
        yield Finding(rule.id, relpath, 1, rule.message)


ENV_KNOB_RE = re.compile(
    r"\b(?:envInt|envStr|getenv)\s*\(\s*\"(SVARD_[A-Z0-9_]+)\"")


def env_knob_check(rule: Rule, relpath: str, raw: list[str],
                   code: list[str]):
    global _readme_text
    if _readme_text is None:
        with open(README_PATH, encoding="utf-8") as f:
            _readme_text = f.read()
    for idx, line in enumerate(code):
        for m in ENV_KNOB_RE.finditer(line):
            knob = m.group(1)
            # The whole name: SVARD_CACHE_FSYNC does not document
            # SVARD_CACHE.
            if not re.search(rf"{knob}(?![A-Z0-9_])", _readme_text):
                yield Finding(rule.id, relpath, idx + 1,
                              f"{knob} is not documented in README.md")


def source_files(tops) -> list[str]:
    out = []
    for top in tops:
        for root, _dirs, files in os.walk(os.path.join(REPO, top)):
            for name in files:
                if name.endswith((".h", ".cc", ".cpp")):
                    out.append(os.path.join(root, name))
    return sorted(out)


def caller_names() -> dict[str, set[str]]:
    global _caller_names
    if _caller_names is None:
        _caller_names = {}
        for abspath in source_files(CALLER_TREES):
            rel = os.path.relpath(abspath, REPO).replace(os.sep, "/")
            with open(abspath, encoding="utf-8", errors="replace") as f:
                code = strip_comments(f.read().splitlines())
            _caller_names[rel] = set(USE_RE.findall("\n".join(code)))
    return _caller_names


# Names before a '(' that are not a declared function.
NOT_FUNCTIONS = {"if", "for", "while", "switch", "return", "sizeof",
                 "decltype", "alignas", "alignof", "noexcept",
                 "__attribute__", "operator"}


def function_name(stmt: str) -> str | None:
    """The function a namespace-scope statement declares or defines,
    or None (types, variables, aliases, macro calls)."""
    s = re.sub(r"^\s*template\s*<[^;{]*?>\s*(?=[A-Za-z_])", "", stmt)
    s = s.strip()
    if re.match(r"(class|struct|union|enum|using|typedef|namespace|"
                r"extern|friend|static_assert)\b", s):
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*\(", s)
    if m is None or not s[:m.start()].strip():
        return None  # no call syntax, or a bare macro call
    eq = s.find("=")
    if 0 <= eq < m.start():
        return None  # a variable with an initializer
    name = m.group(1)
    if name in NOT_FUNCTIONS or name.isupper():
        return None
    if re.search(r"\boperator\W*$", s[:m.start()]):
        return None
    return name


def namespace_functions(code: list[str]):
    """Yields (name, 1-based line) of every function declared or
    defined at namespace scope in a header: statements outside any
    class, function or initializer braces. Preprocessor lines and
    string literals are blanked first."""
    lines, cont = [], False
    for line in code:
        pp = cont or line.lstrip().startswith("#")
        cont = pp and line.rstrip().endswith("\\")
        lines.append("" if pp else line)
    text = re.sub(r'"(?:\\.|[^"\\\n])*"',
                  lambda m: '"' + " " * (len(m.group()) - 2) + '"',
                  "\n".join(lines))
    scopes: list[bool] = []  # True = namespace braces
    start = parens = 0
    for i, c in enumerate(text):
        if c == "(":
            parens += 1
        elif c == ")":
            parens -= 1
        elif parens == 0 and c in "{;}":
            stmt = text[start:i]
            at_ns = all(scopes)
            if c == "}":
                if scopes:
                    scopes.pop()
            else:
                name = function_name(stmt) if at_ns else None
                if name:
                    lead = len(stmt) - len(stmt.lstrip())
                    yield name, text.count("\n", 0, start + lead) + 1
                if c == "{":
                    scopes.append(at_ns and re.search(
                        r"\bnamespace\b[\w:\s]*$", stmt) is not None)
            start = i + 1


def src_has_caller_check(rule: Rule, relpath: str, raw: list[str],
                         code: list[str]):
    found = list(namespace_functions(code))
    own_cc = relpath[:-len(".h")] + ".cc"
    own = USE_RE.findall("\n".join(code))
    for name, line in found:
        declared = sum(1 for n, _ in found if n == name)
        if own.count(name) > declared:
            continue  # used by the header itself (inline code, macros)
        if any(name in names for rel, names in caller_names().items()
               if rel not in (relpath, own_cc)):
            continue
        yield Finding(rule.id, relpath, line,
                      f"{name}() has no caller in src/ outside its own "
                      f".cc, bench/, benchmark/ or examples/ (move it to "
                      f"tests/, delete it, or allowlist it with a "
                      f"reason)", symbol=name)


RULES = [
    Rule(
        id="defense-no-node-maps",
        paths=["src/defense/*"],
        pattern=re.compile(r"\bstd::(unordered_map|map)\s*<"),
        message="std::map/std::unordered_map banned in src/defense/ "
                "(onActivate paths use FlatTable / dense arrays; see "
                "common/flat_table.h)",
    ),
    Rule(
        id="no-wallclock",
        paths=["src/*", "src/*/*"],
        pattern=re.compile(
            r"(?<![\w:])rand\s*\(\s*\)|std::random_device"
            r"|\b(?:std::chrono::)?(?:system_clock|steady_clock)\b"),
        message="wall/monotonic clocks and ambient randomness banned in "
                "src/ (results must be pure in (spec, seed); use "
                "common/rng.h — timing-only uses go in the allowlist)",
    ),
    Rule(
        id="raw-io-fault-points",
        paths=["src/io/*"],
        # `::write(` only at global scope: `ClassName::write(` is a
        # method definition/call, not the POSIX syscall.
        pattern=re.compile(
            r"(?:std::|::)?\b(?:fwrite|rename)\s*\("
            r"|(?<![\w)>])::write\s*\("),
        message="raw write/fwrite/rename must go through io/retry.cc's "
                "fault-injected wrappers (or sit on a faults::check "
                "point with an inline allow)",
    ),
    Rule(
        id="metric-init-only",
        paths=["src/*", "src/*/*"],
        pattern=re.compile(r"obs::(counter|gauge|histogram)\s*\("),
        message="metric registration outside a `static const "
                "obs::MetricId` initializer (registration is "
                "init-path-only; per-call registration locks the "
                "registry on hot paths)",
        check=metric_init_check,
    ),
    Rule(
        id="include-guard",
        paths=["src/*", "src/*/*"],
        exts=(".h",),
        message="",  # composed per finding
        check=include_guard_check,
    ),
    Rule(
        id="example-in-ci",
        paths=["examples/*"],
        exts=(".cpp",),
        message="example not run in CI (.github/workflows/ci.yml must "
                "name it as ./build/bin/<name> in a step that checks "
                "its output; otherwise delete it)",
        check=example_in_ci_check,
    ),
    Rule(
        id="env-knob-documented",
        paths=["src/*", "src/*/*", "bench/*"],
        message="SVARD_* knob read through envInt/envStr/getenv but "
                "not named in README.md",
        check=env_knob_check,
    ),
    Rule(
        id="src-has-caller",
        paths=["src/*", "src/*/*"],
        exts=(".h",),
        message="",  # composed per finding
        check=src_has_caller_check,
    ),
]


def load_allowlist(path: str) -> list[tuple[str, str]]:
    """Returns (rule-id, path-glob) pairs. Format, one per line:
         <rule-id>  <repo-relative-glob>   # rationale
    """
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                sys.exit(f"{path}:{ln}: malformed allowlist entry "
                         f"(want '<rule-id> <glob>')")
            entries.append((parts[0], parts[1]))
    return entries


def allowed(finding: Finding, raw: list[str],
            allowlist: list[tuple[str, str]]) -> bool:
    for where in (finding.line - 1, finding.line - 2):
        if 0 <= where < len(raw):
            m = ALLOW_RE.search(raw[where])
            if m and m.group(1) == finding.rule:
                return True
    where = [finding.path]
    if finding.symbol:
        where.append(f"{finding.path}:{finding.symbol}")
    return any(rule == finding.rule and fnmatch.fnmatch(w, glob)
               for rule, glob in allowlist for w in where)


def lint_file(abspath: str, relpath: str,
              allowlist: list[tuple[str, str]],
              suppressed: list[Finding] | None = None) -> list[Finding]:
    try:
        with open(abspath, encoding="utf-8", errors="replace") as f:
            raw = f.read().splitlines()
    except OSError as e:
        return [Finding("io-error", relpath, 1, str(e))]
    code = strip_comments(raw)
    findings = []
    for rule in RULES:
        if not rule.applies_to(relpath):
            continue
        checker = rule.check or pattern_check
        for finding in checker(rule, relpath, raw, code):
            if not allowed(finding, raw, allowlist):
                findings.append(finding)
            elif suppressed is not None:
                suppressed.append(finding)
    return findings


def stale_entries(allowlist: list[tuple[str, str]],
                  suppressed: list[Finding], lines: list[str],
                  rel: str):
    """Allowlist entries that no longer excuse a finding. A symbol entry
    (`<header>:<name>`) whose function gained a caller or is gone would
    excuse a later, unrelated function of the same name; a path-glob
    entry whose files lost the pattern would excuse its return."""
    for rule, glob in allowlist:
        if any(f.rule == rule and
               (f"{f.path}:{f.symbol}" == glob if ":" in glob
                else fnmatch.fnmatch(f.path, glob))
               for f in suppressed):
            continue
        line = next((i + 1 for i, l in enumerate(lines)
                     if l.split("#", 1)[0].split() == [rule, glob]), 1)
        yield Finding(rule, rel, line,
                      f"stale entry '{glob}': it excuses no finding; "
                      f"delete it")


def iter_tree() -> list[str]:
    return source_files(("src", "bench", "examples"))


def run_lint(paths: list[str]) -> int:
    allowlist = load_allowlist(ALLOWLIST_PATH)
    known = {r.id for r in RULES}
    for rule_id, _glob in allowlist:
        if rule_id not in known:
            sys.exit(f"{ALLOWLIST_PATH}: unknown rule '{rule_id}'")
    files = [os.path.abspath(p) for p in paths] if paths else iter_tree()
    findings, suppressed = [], []
    for abspath in files:
        relpath = os.path.relpath(abspath, REPO).replace(os.sep, "/")
        findings.extend(lint_file(abspath, relpath, allowlist, suppressed))
    if not paths:
        with open(ALLOWLIST_PATH, encoding="utf-8") as f:
            lines = f.read().splitlines()
        rel = os.path.relpath(ALLOWLIST_PATH, REPO).replace(os.sep, "/")
        findings.extend(stale_entries(allowlist, suppressed, lines, rel))
    for f in findings:
        print(f)
    n = len(files)
    if findings:
        print(f"svard_lint: {len(findings)} finding(s) in {n} file(s)",
              file=sys.stderr)
        return 1
    print(f"svard_lint: clean ({n} files, {len(RULES)} rules)")
    return 0


# ----------------------------------------------------------------------
# Self-test: every rule gets a seeded violation fixture (must fire with
# the exact rule id) and an allow-escape fixture (must stay quiet), plus
# negative fixtures for the sharper edges of each matcher.
# ----------------------------------------------------------------------

SRC_GUARD = "#ifndef SVARD_CORE_FIXTURE_H\n#define SVARD_CORE_FIXTURE_H\n"


@dataclass
class Fixture:
    name: str          # fake repo-relative path (drives rule routing)
    content: str
    expect: list[str]  # exact rule ids expected, [] = must be clean


FIXTURES = [
    # -- defense-no-node-maps ------------------------------------------
    Fixture(
        "src/defense/fixture.cc",
        "#include <map>\nstd::map<int, int> counts_;\n",
        ["defense-no-node-maps"]),
    Fixture(
        "src/defense/fixture.cc",
        "#include <unordered_map>\n"
        "std::unordered_map<uint32_t, uint32_t> remap;\n",
        ["defense-no-node-maps"]),
    Fixture(
        "src/defense/fixture.cc",
        "// svard-lint: allow(defense-no-node-maps) init-path only\n"
        "std::map<int, int> factories_;\n",
        []),
    Fixture(  # comments about maps are not findings
        "src/defense/fixture.cc",
        "// replaced the std::unordered_map implementation\n"
        "int x;\n",
        []),
    Fixture(  # outside src/defense/, maps are fine
        "src/engine/fixture.cc",
        "std::map<int, int> counts_;\n",
        []),
    # -- no-wallclock --------------------------------------------------
    Fixture(
        "src/core/fixture.cc",
        "auto t = std::chrono::steady_clock::now();\n",
        ["no-wallclock"]),
    Fixture(
        "src/core/fixture.cc",
        "int r = rand();\n",
        ["no-wallclock"]),
    Fixture(
        "src/core/fixture.cc",
        "std::random_device rd;\n",
        ["no-wallclock"]),
    Fixture(
        "src/core/fixture.cc",
        "auto t = std::chrono::system_clock::now(); "
        "// svard-lint: allow(no-wallclock) log stamp only\n",
        []),
    Fixture(  # xoshiro from common/rng.h is the sanctioned randomness
        "src/core/fixture.cc",
        "svard::Xoshiro256 rng(seed);\nauto v = rng.next();\n",
        []),
    Fixture(  # rng.srand()-style member names must not trip \brand\(
        "src/core/fixture.cc",
        "auto v = owner.brand();\n",
        []),
    # -- raw-io-fault-points -------------------------------------------
    Fixture(
        "src/io/fixture.cc",
        "std::fwrite(buf, 1, n, f);\n",
        ["raw-io-fault-points"]),
    Fixture(
        "src/io/fixture.cc",
        "if (::write(fd, p, n) != (ssize_t)n) fail();\n",
        ["raw-io-fault-points"]),
    Fixture(
        "src/io/fixture.cc",
        "std::rename(tmp.c_str(), path.c_str());\n",
        ["raw-io-fault-points"]),
    Fixture(
        "src/io/fixture.cc",
        "faults::check(\"fixture.write\");\n"
        "// svard-lint: allow(raw-io-fault-points) on a check point\n"
        "std::fwrite(buf, 1, n, f);\n",
        []),
    Fixture(  # sink->write(row) is a method call, not raw I/O
        "src/io/fixture.cc",
        "sink_->write(row);\nouter.write(row);\n",
        []),
    Fixture(  # qualified method definitions are not the syscall
        "src/io/fixture.cc",
        "void\nAsyncSink::write(const engine::CellResult &row)\n{\n}\n",
        []),
    Fixture(  # raw I/O outside io/ is out of scope for this rule
        "src/obs/fixture.cc",
        "std::fwrite(buf, 1, n, f);\n",
        []),
    # -- metric-init-only ----------------------------------------------
    Fixture(
        "src/sim/fixture.cc",
        "void tick() {\n  obs::add(obs::counter(\"sim.ticks\"));\n}\n",
        ["metric-init-only"]),
    Fixture(
        "src/sim/fixture.cc",
        "static const obs::MetricId ticks =\n"
        "    obs::counter(\"sim.ticks\");\n",
        []),
    Fixture(
        "src/sim/fixture.cc",
        "const auto id = obs::gauge(\"sim.depth\"); "
        "// svard-lint: allow(metric-init-only) test scaffolding\n",
        []),
    # -- include-guard -------------------------------------------------
    Fixture(
        "src/core/fixture.h",
        "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n",
        ["include-guard"]),
    Fixture(
        "src/core/fixture.h",
        "#pragma once\nint x;\n",
        ["include-guard"]),
    Fixture(
        "src/core/fixture.h",
        "int x;\n",
        ["include-guard"]),
    Fixture(
        "src/core/fixture.h",
        "#ifndef SVARD_CORE_FIXTURE_H\n"
        "#define SVARD_CORE_FIXTURE_H\n"
        "#ifdef SVARD_OBS_OFF\n#endif\n"  # nested #ifndef-adjacent ok
        "#endif\n",
        []),
    # -- example-in-ci (against FIXTURE_CI, not the real workflow) ------
    Fixture(
        "examples/unrun_demo.cpp",
        "int main() { return 0; }\n",
        ["example-in-ci"]),
    Fixture(  # a step's `run:` key or a longer binary name don't count
        "examples/run.cpp",
        "int main() { return 0; }\n",
        ["example-in-ci"]),
    Fixture(
        "examples/run_demo.cpp",
        "int main() { return 0; }\n",
        []),
    Fixture(
        "examples/unrun_demo.cpp",
        "// svard-lint: allow(example-in-ci) run by a nightly job\n"
        "int main() { return 0; }\n",
        []),
    # -- env-knob-documented (against FIXTURE_README) -------------------
    Fixture(
        "bench/fixture.cc",
        "const int64_t n = envInt(\"SVARD_UNDOCUMENTED\", 4);\n",
        ["env-knob-documented"]),
    Fixture(  # a longer documented name does not cover a prefix
        "src/obs/fixture.cc",
        "const char *v = std::getenv(\"SVARD_DEMO\");\n",
        ["env-knob-documented"]),
    Fixture(
        "src/obs/fixture.cc",
        "const std::string p = envStr(\"SVARD_DEMO_PATH\", \"\");\n",
        []),
    Fixture(
        "bench/fixture.cc",
        "// svard-lint: allow(env-knob-documented) test-only knob\n"
        "const int64_t n = envInt(\"SVARD_UNDOCUMENTED\", 4);\n",
        []),
    # -- src-has-caller (against FIXTURE_CALLERS) -----------------------
    Fixture(
        "src/core/fixture.h",
        SRC_GUARD + "namespace svard {\nint orphan(int x);\n}\n#endif\n",
        ["src-has-caller"]),
    Fixture(
        "src/core/fixture.h",
        SRC_GUARD + "namespace svard {\n"
        "// svard-lint: allow(src-has-caller) test hook\n"
        "int orphan(int x);\n}\n#endif\n",
        []),
    Fixture(  # a bench call counts; one in the own .cc or as a member
              # call of something else does not
        "src/core/fixture.h",
        SRC_GUARD + "namespace svard {\n"
        "template <typename T>\nT benched(T x);\n"
        "std::string onlyOwnCc(const Spec &s);\n"
        "void memberLike();\n}\n#endif\n",
        ["src-has-caller", "src-has-caller"]),
    Fixture(  # members, macros, types and variables are out of scope;
              # use inside the header itself counts
        "src/core/fixture.h",
        SRC_GUARD + "#define FIXTURE_CALL(x) helper(x)\n"
        "namespace svard {\n"
        "struct Box {\n  int unused(int x) const;\n};\n"
        "constexpr int kSize = sizeof(Box);\n"
        "inline int helper(int x) { return x; }\n"
        "inline int viaHelper(int x) { return helper(x); }\n"
        "int benched2(int x);\n}\n#endif\n",
        []),
    # -- multi-rule ----------------------------------------------------
    Fixture(
        "src/defense/fixture.cc",
        "std::map<int, int> m;\nint r = rand();\n",
        ["defense-no-node-maps", "no-wallclock"]),
]


# The workflow the example-in-ci fixtures are checked against.
FIXTURE_CI = "      - run: ./build/bin/run_demo 128 1500 > out.txt\n"
# The README the env-knob-documented fixtures are checked against.
FIXTURE_README = "| `SVARD_DEMO_PATH=p` | where the demo writes |\n"
# The tree the src-has-caller fixtures find callers in.
FIXTURE_CALLERS = {
    "bench/fig_demo.cc": "int n = svard::benched(2) + benched2(1) + viaHelper(3);\n"
                         "cfg.memberLike();\n",
    "src/core/fixture.cc": "std::string onlyOwnCc(const Spec &s) {}\n"
                           "int v = onlyOwnCc(spec).size();\n",
}


# The allowlist the stale-entry check is run against, over the
# STALE_FIXTURES files: each rule has one entry that excuses a finding
# and one that excuses none (the two the check must report).
FIXTURE_ALLOW = [
    ("no-wallclock", "src/obs/*"),
    ("no-wallclock", "src/sim/*"),
    ("src-has-caller", "src/core/fixture.h:orphan"),
    ("src-has-caller", "src/core/fixture.h:renamed"),
]
STALE_FIXTURES = [
    Fixture("src/obs/fixture.cc",
            "auto t = std::chrono::steady_clock::now();\n", []),
    Fixture("src/core/fixture.h",
            SRC_GUARD + "namespace svard {\nint orphan(int x);\n}\n"
            "#endif\n", []),
]
STALE_EXPECT = ["src/sim/*", "src/core/fixture.h:renamed"]


def lint_fixture(fx: Fixture, allowlist: list[tuple[str, str]],
                 suppressed: list[Finding] | None = None) -> list[Finding]:
    import tempfile
    with tempfile.NamedTemporaryFile(
            "w", suffix=os.path.basename(fx.name), delete=False) as tmp:
        tmp.write(fx.content)
        tmp_path = tmp.name
    try:
        return lint_file(tmp_path, fx.name, allowlist, suppressed)
    finally:
        os.unlink(tmp_path)


def self_test() -> int:
    global _ci_text, _readme_text, _caller_names
    _ci_text = FIXTURE_CI
    _readme_text = FIXTURE_README
    _caller_names = {rel: set(USE_RE.findall(text))
                     for rel, text in FIXTURE_CALLERS.items()}
    failures = 0
    for i, fx in enumerate(FIXTURES):
        # Empty allowlist: these fixtures exercise rules and inline
        # escapes only, independent of the tree's allow file.
        found = lint_fixture(fx, [])
        got = sorted(f.rule for f in found)
        want = sorted(fx.expect)
        if got != want:
            failures += 1
            print(f"self-test FAIL [{i}] {fx.name}: expected "
                  f"{want or 'clean'}, got {got or 'clean'}")
            for f in found:
                print(f"    {f}")
    suppressed = []
    for fx in STALE_FIXTURES:
        if lint_fixture(fx, FIXTURE_ALLOW, suppressed):
            failures += 1
            print(f"self-test FAIL [stale] {fx.name}: not excused")
    lines = [f"{rule} {glob}" for rule, glob in FIXTURE_ALLOW]
    stale = [f.message.split("'")[1] for f in
             stale_entries(FIXTURE_ALLOW, suppressed, lines, "allow.txt")]
    if stale != STALE_EXPECT:
        failures += 1
        print(f"self-test FAIL [stale]: expected {STALE_EXPECT}, "
              f"got {stale}")
    total = len(FIXTURES) + 1
    if failures:
        print(f"svard_lint --self-test: {failures}/{total} fixtures "
              f"FAILED", file=sys.stderr)
        return 1
    print(f"svard_lint --self-test: {total} fixtures passed")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="files to lint (default: src/, bench/ and "
                         "examples/)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite and exit")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    args = ap.parse_args()
    if args.list_rules:
        for r in RULES:
            print(f"{r.id}: {r.message or 'canonical include guards'}")
            print(f"    scope: {', '.join(r.paths)}  "
                  f"exts: {', '.join(r.exts)}")
        return 0
    if args.self_test:
        return self_test()
    return run_lint(args.files)


if __name__ == "__main__":
    sys.exit(main())
