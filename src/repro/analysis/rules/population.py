"""POP — replay-pure participant sampling.

``POP002``
    No stored generators where participant sets are decided.  In
    ``repro.fl.sampler`` every draw must call ``derive_rng(seed,
    *streams)`` at the point of use: persisting the generator on an
    attribute makes the next draw depend on call history, which breaks
    sampling round 5 before round 3 and checkpoint rewind.

The rule reads source ASTs only, so a violation fails ``repro check``
the moment it is written.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..diagnostics import Diagnostic
from ..project import Project, SourceFile
from ..registry import Rule, register

POP_SCOPE = ("repro.fl.sampler",)
"""Where replay purity is load-bearing: the module that decides which
clients participate each round.  Algorithms and the session keep their
own stored state under the checkpoint codec; the sampler must stay
stateless so rewind needs no state at all."""


def _is_derive_rng_call(node: ast.expr) -> bool:
    """Whether ``node`` is (or trivially wraps) a ``derive_rng(...)`` call."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "derive_rng"
    if isinstance(func, ast.Attribute):
        return func.attr == "derive_rng"
    return False


@register
class StoredGeneratorRule(Rule):
    id = "POP002"
    summary = ("the sampler must derive generators at the point of use, "
               "never store them on attributes")
    scope = POP_SCOPE

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not _is_derive_rng_call(value):
                continue
            for target in targets:
                if isinstance(target, ast.Attribute):
                    yield self.diagnostic(
                        source.rel, node.lineno,
                        f"derive_rng(...) result stored on attribute "
                        f"'{ast.unparse(target)}'",
                        hint="a persisted generator makes draws depend on "
                             "call history; re-derive per (seed, round, "
                             "client) at each use instead")
