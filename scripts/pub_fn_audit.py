#!/usr/bin/env python3
"""Public-function audit: finds non-test `pub fn`s that nothing else calls.

Scans the non-test part (everything before the first `#[cfg(test)]`) of
each .rs file under crates/*/src for `pub fn` declarations. A name counts
as used when a whole-word match appears in another .rs file under crates,
src, examples, tests or perfbench/src. None of these is a call, so none
counts: a `//` comment line, a whole `pub use ...;` re-export (every line
of a multi-line one), and a `fn <name>` declaration.

The scan matches names, not paths: a name shared with another type's
method or function, such as `new`, still counts as a use.

Prints the unused functions, then exits 1 if one is not on KEEP, or if a
KEEP entry is no longer unused (so the list stays exact).

Usage, from anywhere in the repo:

    python3 scripts/pub_fn_audit.py
"""

import os
import re
import sys

# Public on purpose although nothing outside their own file calls them.
KEEP = {
    # ISA ops of the simulated NPU, kept with the rest of the instruction set.
    ("crates/hexsim/src/ctx.rs", "dma_t2h"),
    ("crates/hexsim/src/ctx.rs", "vscatter_h"),
    ("crates/hexsim/src/ctx.rs", "vadd_hf"),
    # Readable references the fast paths are tested against.
    ("crates/hexsim/src/hmx.rs", "mac"),
    ("crates/kernels/src/attention.rs", "attention_f32"),
    # The module's documented continuous-batching runner.
    ("crates/tts/src/llm_policy.rs", "llm_bon_continuous"),
}

USE_DIRS = ("crates", "src", "examples", "tests", "perfbench/src")
REEXPORT = re.compile(r"^\s*pub use\b[^;]*;", re.M)


def rust_files(*dirs):
    for d in dirs:
        for dirpath, _, files in os.walk(d):
            for f in sorted(files):
                if f.endswith(".rs"):
                    yield os.path.join(dirpath, f)


def main():
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    raw = {p: open(p).read() for p in rust_files(*USE_DIRS)}
    uses = {
        p: "\n".join(
            l for l in REEXPORT.sub("", t).splitlines() if not l.lstrip().startswith("//")
        )
        for p, t in raw.items()
    }
    fns = [
        (p, m.group(1))
        for p in sorted(raw)
        if p.startswith("crates/") and "/src/" in p
        for m in re.finditer(r"^\s*pub fn (\w+)", raw[p].split("#[cfg(test)]")[0], re.M)
    ]
    unused = [
        (p, n)
        for p, n in fns
        if not any(re.search(rf"(?<!\bfn )\b{n}\b", t) for q, t in uses.items() if q != p)
    ]
    print(f"{len(unused)} of {len(fns)} non-test pub fns unused outside their own file")
    failed = False
    for p, n in unused:
        print(" ", p, n)
        if (p, n) not in KEEP:
            print(f"error: {p}: `{n}` is public but unused: delete it, make it "
                  "private, or add it to KEEP with a reason", file=sys.stderr)
            failed = True
    for p, n in sorted(KEEP - set(unused)):
        print(f"error: {p}: KEEP lists `{n}`, which is used elsewhere or gone: "
              "drop it from KEEP", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
