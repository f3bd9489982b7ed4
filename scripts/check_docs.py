#!/usr/bin/env python3
"""Doc lint: the docs must keep up with the code.

Four checks, all wired into ctest as `check_docs`:

1. Every metric name registered in src/ (GetCounter / GetGauge /
   GetHistogram / RegisterCallback / CallbackGuard::Register) must have a
   matching row in docs/METRICS.md. Names are built as `prefix + ".suffix"`,
   so the lint extracts the dotted string-literal fragment at each
   registration site and requires that exact fragment to appear in
   METRICS.md (rows spell either the suffix, `.objects_put`, or a full
   name containing it, `backend.shard<i>.objects_put`).

2. Every bench binary named like a paper artifact (bench/fig*.cc,
   bench/tbl*.cc) must have a row in the EXPERIMENTS.md bench index.

3. Every data-member field of the config structs listed in CONFIG_STRUCTS
   must appear backticked in that struct's target doc (LsvdConfig and
   GcSimConfig in docs/GC.md, FleetConfig in docs/FLEET.md, the retry
   policies and ReplicatorConfig in DESIGN.md), so new knobs ship
   documented.

4. The reverse of 3, so a deleted field or predicate cannot stay
   documented: every `LsvdConfig::x`, `GcSimConfig::x` and `config.x()` /
   `config_.x()` name cited in DESIGN.md, EXPERIMENTS.md, README.md or
   docs/*.md must be declared in the struct's header (src/lsvd/config.h,
   src/lsvd/gc_sim.h), and every backticked first-column name in a config
   table (the table under a `### \`Struct\`` heading of a CONFIG_STRUCTS
   doc) must be a field of that struct.

Run from anywhere: `python3 scripts/check_docs.py [repo_root]`.
Exit 0 = docs in sync; exit 1 = findings (listed on stderr).
"""

import re
import sys
from pathlib import Path

REGISTER_CALL = re.compile(
    r"\b(?:GetCounter|GetGauge|GetHistogram|RegisterCallback|Register)\s*\("
)
STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')
# How far past the call token to look for the name literal; registration
# sites put the name in the first argument or two, never further.
WINDOW = 160


def metric_fragments(src_root: Path):
    """Yield (file, fragment) for every dotted literal at a registration site."""
    for path in sorted(src_root.rglob("*.cc")) + sorted(src_root.rglob("*.h")):
        text = path.read_text(encoding="utf-8", errors="replace")
        for call in REGISTER_CALL.finditer(text):
            window = text[call.end():call.end() + WINDOW]
            # Stop at a lambda: RegisterCallback bodies may contain
            # unrelated string literals.
            lambda_at = window.find("[")
            if lambda_at != -1:
                window = window[:lambda_at]
            for lit in STRING_LITERAL.finditer(window):
                frag = lit.group(1)
                # Metric fragments are dotted identifier paths; anything
                # else (error text, file names) is not a metric name.
                if re.fullmatch(r"\.?[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)*", frag) \
                        and "." in frag.lstrip("."):
                    yield path, frag
                elif re.fullmatch(r"\.[A-Za-z0-9_]+", frag):
                    yield path, frag


def check_metrics(repo: Path, errors: list):
    metrics_md = (repo / "docs" / "METRICS.md").read_text(encoding="utf-8")
    seen = set()
    for path, frag in metric_fragments(repo / "src"):
        if frag in seen:
            continue
        seen.add(frag)
        if frag not in metrics_md:
            errors.append(
                f"{path.relative_to(repo)}: registered metric fragment "
                f'"{frag}" has no row in docs/METRICS.md'
            )
    if not seen:
        errors.append("metric scan found no registration sites — "
                      "check_docs.py is broken, fix its patterns")


def check_bench_index(repo: Path, errors: list):
    experiments_md = (repo / "EXPERIMENTS.md").read_text(encoding="utf-8")
    benches = sorted((repo / "bench").glob("fig*.cc")) + \
        sorted((repo / "bench").glob("tbl*.cc"))
    if not benches:
        errors.append("no bench/fig*.cc or bench/tbl*.cc found — "
                      "check_docs.py is broken, fix its globs")
    for path in benches:
        name = path.stem
        if f"`{name}`" not in experiments_md:
            errors.append(
                f"bench/{path.name}: no `{name}` row in the EXPERIMENTS.md "
                "bench index"
            )


# Struct member declaration: `type name = default;`, `type name{init};` or
# `type name;` on one line. Lines containing `(` are functions/ctors, not
# fields.
FIELD_DECL = re.compile(
    r"^\s+[A-Za-z_][\w:<>,\* ]*?[\s&\*]([a-z_][a-z0-9_]*)\s*"
    r"(?:=[^;]*|\{[^;]*\})?;")

# (header, struct, doc that must backtick every field of the struct)
CONFIG_STRUCTS = [
    ("src/lsvd/config.h", "LsvdConfig", "docs/GC.md"),
    ("src/lsvd/gc_sim.h", "GcSimConfig", "docs/GC.md"),
    ("src/fleet/fleet.h", "FleetConfig", "docs/FLEET.md"),
    ("src/objstore/retry.h", "RetryPolicy", "DESIGN.md"),
    ("src/lsvd/config.h", "BackendRetryPolicy", "DESIGN.md"),
    ("src/lsvd/replicator.h", "ReplicatorConfig", "DESIGN.md"),
]


def struct_fields(text: str, struct: str):
    """Yield the data-member names of `struct <name> { ... };` in `text`.

    Fields inherited from a base struct are not yielded; list the base in
    CONFIG_STRUCTS too.
    """
    m = re.search(r"struct %s\b[^;{]*\{" % re.escape(struct), text)
    if m is None:
        return
    start = m.start()
    depth = 0
    body_lines = []
    for i, ch in enumerate(text[start:], start):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                body_lines = text[start:i].splitlines()
                break
    nested = 0  # skip bodies of nested structs/lambdas/member functions
    for line in body_lines[1:]:
        line = line.split("//", 1)[0]  # trailing comments may contain ( or {
        nested += line.count("{") - line.count("}")
        if nested != 0 or "(" in line:
            continue
        m = FIELD_DECL.match(line)
        if m:
            yield m.group(1)


def check_config_reference(repo: Path, errors: list):
    docs = {}  # doc path -> text, read once
    found_any = False
    for rel, struct, doc in CONFIG_STRUCTS:
        if doc not in docs:
            docs[doc] = (repo / doc).read_text(encoding="utf-8")
        text = (repo / rel).read_text(encoding="utf-8")
        for field in struct_fields(text, struct):
            found_any = True
            if f"`{field}`" not in docs[doc]:
                errors.append(
                    f"{rel}: {struct}::{field} is not documented in "
                    f"{doc}'s config reference"
                )
    if not found_any:
        errors.append("config scan found no struct fields — "
                      "check_docs.py is broken, fix its patterns")


# `LsvdConfig::name` / `GcSimConfig::name` and `config.name()` /
# `config_.name()` citations; the bare `config` forms mean LsvdConfig.
CONFIG_CITATION = re.compile(
    r"\b(LsvdConfig|GcSimConfig)::([A-Za-z_]\w*)"
    r"|\bconfig_?\.([A-Za-z_]\w*)\(\)")
CITED_HEADERS = {
    "LsvdConfig": "src/lsvd/config.h",
    "GcSimConfig": "src/lsvd/gc_sim.h",
}
CITING_DOCS = ["DESIGN.md", "EXPERIMENTS.md", "README.md"]


def check_config_citations(repo: Path, errors: list):
    declared = {}
    for struct, rel in CITED_HEADERS.items():
        header = (repo / rel).read_text(encoding="utf-8")
        # A declaration: the name followed by a default, `;` or a parameter
        # list.
        declared[struct] = set(
            re.findall(r"\b([A-Za-z_]\w*)\s*(?:=[^=]|;|\()", header))
    docs = [repo / d for d in CITING_DOCS] + sorted((repo / "docs").glob("*.md"))
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for m in CONFIG_CITATION.finditer(line):
                struct = m.group(1) or "LsvdConfig"
                name = m.group(2) or m.group(3)
                if name not in declared[struct]:
                    errors.append(
                        f"{doc.relative_to(repo)}:{lineno}: cites "
                        f"{m.group(0)}, which {CITED_HEADERS[struct]} does "
                        "not declare"
                    )


def check_config_tables(repo: Path, errors: list):
    for rel, struct, doc in CONFIG_STRUCTS:
        lines = (repo / doc).read_text(encoding="utf-8").splitlines()
        heading = f"`{struct}`"
        try:
            start = next(i for i, line in enumerate(lines)
                         if line.startswith("#") and
                         line.lstrip("#").strip() == heading)
        except StopIteration:
            continue  # this doc lists the struct some other way
        fields = set(struct_fields(
            (repo / rel).read_text(encoding="utf-8"), struct))
        in_table = False
        for lineno, line in enumerate(lines[start + 1:], start + 2):
            if not line.startswith("|"):
                if in_table:
                    break
                continue
            in_table = True
            m = re.fullmatch(r"\s*`([A-Za-z_]\w*)`\s*", line.split("|")[1])
            if m and m.group(1) not in fields:
                errors.append(
                    f"{doc}:{lineno}: config table row `{m.group(1)}` is "
                    f"not a field of {struct} in {rel}"
                )


def main() -> int:
    repo = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent
    errors = []
    check_metrics(repo, errors)
    check_bench_index(repo, errors)
    check_config_reference(repo, errors)
    check_config_citations(repo, errors)
    check_config_tables(repo, errors)
    if errors:
        print("check_docs: %d finding(s)" % len(errors), file=sys.stderr)
        for e in errors:
            print("  " + e, file=sys.stderr)
        return 1
    print("check_docs: docs in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
