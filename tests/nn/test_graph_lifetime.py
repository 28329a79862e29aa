"""Graph lifetime: autograd graphs are acyclic and released by backward().

Every graph must be freed by reference counting alone — no node may sit in
a reference cycle, so nothing waits for CPython's cyclic collector.  The
checks run with the collector disabled and ``gc.DEBUG_SAVEALL`` set: every
object a ``gc.collect()`` then finds unreachable lands in ``gc.garbage``,
and none of those may be a :class:`Tensor`.
"""

import contextlib
import gc

import numpy as np
import pytest

from repro.data import make_cifar10_like
from repro.eval import build_method
from repro.fl import FederatedConfig, build_federation
from repro.nn import MLPEncoder, Tensor
from repro.nn import functional as F

from ..helpers import rng

IMAGE_SIZE = 6
INPUT_DIM = 3 * IMAGE_SIZE * IMAGE_SIZE


@contextlib.contextmanager
def cyclic_tensors():
    """Collect the Tensors that only the cyclic collector could free.

    Yields a list that is filled, on exit, with every ``Tensor`` the block
    left in an unreachable reference cycle.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    found = []
    try:
        yield found
        gc.collect()
        found.extend(obj for obj in gc.garbage if isinstance(obj, Tensor))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def leaf(*shape, seed=0, positive=False):
    data = rng(seed).standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


# One entry per backward closure in repro.nn.tensor / repro.nn.functional.
OPS = {
    "astype": lambda: leaf(3, 4).astype(np.float32),
    "add": lambda: leaf(3, 4) + leaf(4, seed=1),
    "neg": lambda: -leaf(3, 4),
    "mul": lambda: leaf(3, 4) * leaf(3, 1, seed=1),
    "truediv": lambda: leaf(3, 4) / leaf(4, seed=1, positive=True),
    "pow": lambda: leaf(3, 4, positive=True) ** 1.5,
    "matmul": lambda: leaf(3, 4) @ leaf(4, 2, seed=1),
    "matvec": lambda: leaf(3, 4) @ leaf(4, seed=1),
    "vecmat": lambda: leaf(4) @ leaf(4, 2, seed=1),
    "exp": lambda: leaf(3, 4).exp(),
    "log": lambda: leaf(3, 4, positive=True).log(),
    "sqrt": lambda: leaf(3, 4, positive=True).sqrt(),
    "tanh": lambda: leaf(3, 4).tanh(),
    "sigmoid": lambda: leaf(3, 4).sigmoid(),
    "relu": lambda: leaf(3, 4).relu(),
    "leaky_relu": lambda: leaf(3, 4).leaky_relu(0.1),
    "abs": lambda: leaf(3, 4).abs(),
    "clip": lambda: leaf(3, 4).clip(-0.5, 0.5),
    "sum": lambda: leaf(3, 4).sum(axis=1),
    "max": lambda: leaf(3, 4).max(axis=0),
    "reshape": lambda: leaf(3, 4).reshape(2, 6),
    "transpose": lambda: leaf(3, 4).transpose(),
    "getitem": lambda: leaf(3, 4)[np.array([0, 2, 0])],
    "expand_dims": lambda: leaf(3, 4).expand_dims(1),
    "concat": lambda: Tensor.concat([leaf(3, 4), leaf(2, 4, seed=1)]),
    "conv2d": lambda: F.conv2d(leaf(2, 3, 5, 5), leaf(4, 3, 3, 3, seed=1),
                               leaf(4, seed=2), padding=1),
    "max_pool2d": lambda: F.max_pool2d(leaf(2, 3, 4, 4), 2),
    "avg_pool2d": lambda: F.avg_pool2d(leaf(2, 3, 4, 4), 2),
}


@pytest.mark.parametrize("name", sorted(OPS))
class TestEveryOpIsAcyclic:
    def test_unused_output_leaves_no_cycle(self, name):
        with cyclic_tensors() as found:
            out = OPS[name]()
            assert out.requires_grad
            del out
        assert found == []

    def test_backpropagated_output_leaves_no_cycle(self, name):
        with cyclic_tensors() as found:
            out = OPS[name]()
            out.sum().backward()
            del out
        assert found == []


class TestGraphsAreFreedByReferenceCounting:
    def test_forward_never_backpropagated(self):
        encoder = MLPEncoder(INPUT_DIM, hidden_dims=(16, 8),
                             rng=np.random.default_rng(7))
        images = Tensor(rng(1).standard_normal((5, INPUT_DIM)))
        with cyclic_tensors() as found:
            # A loss evaluated under grad mode only for its value.
            loss = F.normalize(encoder(images), axis=1).sum()
            assert loss.requires_grad
            float(loss.data)
            del loss
        assert found == []

    @staticmethod
    def federation():
        config = FederatedConfig(num_clients=4, clients_per_round=4, rounds=1,
                                 local_epochs=1, batch_size=4,
                                 personalization_epochs=2, seed=0)
        dataset = make_cifar10_like(image_size=IMAGE_SIZE, train_per_class=48,
                                    test_per_class=4, seed=0)
        labels = dataset.train.labels
        # Single-class equal partitions: one shape-homogeneous cohort.
        parts = [np.where(labels == c)[0][:12] for c in range(4)]
        return config, build_federation(dataset, parts, test_fraction=0.25,
                                        seed=0)

    @staticmethod
    def encoder_factory():
        return MLPEncoder(INPUT_DIM, hidden_dims=(16, 8),
                          rng=np.random.default_rng(7))

    def test_calibre_per_client_update(self):
        config, clients = self.federation()
        algorithm = build_method("calibre-simclr", config, 10,
                                 self.encoder_factory)
        state = algorithm.build_global_state()
        with cyclic_tensors() as found:
            update = algorithm.local_update(clients[0], state, 0)
        assert np.isfinite(update.metrics["loss"])
        assert found == []

    def test_pfl_batched_cohort_update(self):
        config, clients = self.federation()
        algorithm = build_method("pfl-simclr", config, 10,
                                 self.encoder_factory)
        state = algorithm.build_global_state()
        with cyclic_tensors() as found:
            updates = algorithm.cohort_update(clients, state, 0)
        assert len(updates) == len(clients)
        # The cohort really went through trace recording and batched replay.
        assert algorithm._trace_cache and not algorithm._untraceable
        assert found == []


class TestBackwardReleasesTheGraph:
    def test_second_backward_raises(self):
        x = leaf(3, 4)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="second time"):
            loss.backward()

    def test_backward_through_a_released_shared_node_raises(self):
        x = leaf(3, 4)
        hidden = x.tanh()
        first = hidden.sum()
        second = (hidden * hidden).sum()
        first.backward()
        grad_after_first = x.grad.copy()
        with pytest.raises(RuntimeError, match="second time"):
            second.backward()
        # The refusal comes before any gradient is touched.
        np.testing.assert_array_equal(x.grad, grad_after_first)

    def test_interior_nodes_drop_their_edges_but_keep_grad(self):
        x = leaf(3, 4)
        hidden = x * 2.0
        loss = hidden.sum()
        loss.backward()
        assert hidden._parents == () and loss._parents == ()
        np.testing.assert_array_equal(hidden.grad, np.ones((3, 4)))

    def test_leaves_stay_reusable_across_fresh_forwards(self):
        x = leaf(3, 4)
        (x * 3.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 6.0))
        # A leaf's own backward seeds its gradient and stays repeatable.
        x.backward()
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 7.0))
