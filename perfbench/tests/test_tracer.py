"""Self-tests of the out-of-program tracer."""

import time

import pytest

from perfbench.tracer import TARGETS, Recorder, Target, install, resolve_target, uninstall


class Nested:
    """Stand-in layers: ``outer`` calls ``inner`` twice and itself once."""

    def outer(self, depth=0):
        time.sleep(0.01)
        self.inner()
        self.inner()
        if depth == 0:
            self.outer(depth=1)  # same layer nested: charged to the outer call

    def inner(self):
        time.sleep(0.005)


NESTED_TARGETS = (
    Target("t.outer", f"{__name__}:Nested.outer"),
    Target("t.inner", f"{__name__}:Nested.inner"),
)


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.path)
def test_every_wrapped_name_resolves(target):
    owner, attr, original = resolve_target(target)
    assert callable(original)
    assert vars(owner)[attr] is original


@pytest.mark.parametrize("path", [
    "repro.cluster.kmeans:kmeans_renamed",
    "repro.nn.tensor:Tensor.backward_renamed",
    "repro.nn.tensor:NoSuchClass.backward",
    "repro.no_such_module:anything",
    # inherited, not defined on the named class: must not be charged twice
    "repro.core.calibre:Calibre.local_update",
])
def test_a_renamed_function_fails_loudly(path):
    with pytest.raises(LookupError):
        resolve_target(Target("x", path))


def test_wrappers_restore_the_originals():
    import repro.cli  # noqa: F401  (loads every module the CLI reaches)
    import repro.cluster as cluster
    import repro.core.prototypes as prototypes

    before = {target.path: resolve_target(target)[2] for target in TARGETS}
    alias_before = prototypes.kmeans
    patches = install(Recorder(), traced=True)
    try:
        for target in TARGETS:
            assert resolve_target(target)[2] is not before[target.path], target.path
        assert prototypes.kmeans is cluster.kmeans  # aliases patched too
        assert prototypes.kmeans is not alias_before
    finally:
        uninstall(patches)
    for target in TARGETS:
        assert resolve_target(target)[2] is before[target.path], target.path
    assert prototypes.kmeans is alias_before


def test_child_self_times_sum_to_no_more_than_the_parent_total():
    recorder = Recorder()
    patches = install(recorder, targets=NESTED_TARGETS)
    try:
        Nested().outer()
    finally:
        uninstall(patches)
    outer_calls, outer_total, outer_self = recorder.stats["t.outer"]
    inner_calls, inner_total, inner_self = recorder.stats["t.inner"]
    assert outer_calls == 1  # the nested same-layer call is not double-charged
    assert inner_calls == 4
    assert inner_self <= inner_total <= outer_total
    assert outer_self + inner_self <= outer_total + 1e-9
    assert outer_self == pytest.approx(outer_total - inner_total, abs=1e-9)
    assert outer_self >= 0.02  # both outer sleeps stay outer self time
