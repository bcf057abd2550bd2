#!/usr/bin/env python
"""Docs check: intra-repo links must resolve; tagged examples must run.

Two passes over ``README.md`` and ``docs/*.md`` (stdlib only, no deps):

1. **Links** — every relative markdown link (``[text](path)`` or
   ``[text](path#anchor)``) must point at an existing file or directory in
   the repository.  External links (``http(s)://``, ``mailto:``) and
   pure-anchor links (``#section``) are skipped.  Bare intra-repo *path
   mentions* in prose or code are not checked — only actual link syntax.
2. **Smoke tests** — every fenced ``python`` code block whose first line is
   ``# docs-smoke-test`` is executed (with ``src`` on ``sys.path``).  This
   keeps runnable examples in the docs — like the crash → recover →
   catch-up scenario in ``docs/SCENARIOS.md`` — from rotting.

Exit status is non-zero on any broken link or failing example, which is how
CI consumes it: ``python tools/check_docs.py``.
"""

from __future__ import annotations

import re
import sys
import types
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE_TAG = "# docs-smoke-test"

#: Markdown inline links: [text](target).  Images ![alt](target) match too
#: (the leading ! simply precedes the captured group).
LINK_RE = re.compile(r"\[[^\]\[]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def doc_files():
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def strip_code_blocks(text: str) -> str:
    """Remove fenced code blocks so code snippets cannot produce links."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def check_links(path: Path) -> list:
    problems = []
    for target in LINK_RE.findall(strip_code_blocks(path.read_text())):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
    return problems


def run_smoke_blocks(path: Path) -> list:
    problems = []
    for index, block in enumerate(FENCE_RE.findall(path.read_text())):
        code = block.strip("\n")
        if not code.startswith(SMOKE_TAG):
            continue
        label = f"{path.relative_to(REPO_ROOT)} python block #{index}"
        print(f"running {label} ...")
        # Run each block as its own importable module, as a user's script
        # would be (dataclasses resolve their module through sys.modules).
        module = sys.modules["__docs_smoke__"] = types.ModuleType("__docs_smoke__")
        try:
            exec(compile(code, str(path), "exec", dont_inherit=True), module.__dict__)
        except Exception as exc:  # noqa: BLE001 - report and keep checking
            problems.append(f"{label}: example failed: {exc!r}")
        finally:
            del sys.modules["__docs_smoke__"]
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = []
    for path in doc_files():
        problems.extend(check_links(path))
    for path in doc_files():
        problems.extend(run_smoke_blocks(path))
    if problems:
        print("\ndocs check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"docs check OK ({len(doc_files())} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
