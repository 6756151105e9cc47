"""Tests for the GNN case-study stack: layers (numerical gradient checks),
model, optimizers, feature store, PPR sampler, and end-to-end training."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine.config import EngineConfig
from repro.gnn import (
    Adam,
    Batch,
    Linear,
    SGD,
    SageConv,
    ShadowSage,
    community_task,
    run_distributed_training,
    topk_ppr_nodes,
)
from repro.gnn.layers import softmax_cross_entropy
from repro.gnn.train import make_community_dataset
from repro.graph import powerlaw_cluster
from repro.partition import HashPartitioner
from repro.ppr import PPRParams
from repro.storage import build_shards
from repro.storage.feature_store import (
    FeatureShard,
    assemble_rows,
    split_features,
)


def numerical_grad(f, param, eps=1e-6):
    """Central-difference gradient of scalar f wrt param.value."""
    grad = np.zeros_like(param.value)
    it = np.nditer(param.value, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = param.value[ix]
        param.value[ix] = orig + eps
        f_plus = f()
        param.value[ix] = orig - eps
        f_minus = f()
        param.value[ix] = orig
        grad[ix] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


class TestLayers:
    def test_linear_gradient_check(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 3, seed=1)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_fn():
            return float(((layer.forward(x) - target) ** 2).sum())

        out = layer.forward(x)
        layer.weight.zero_grad()
        layer.bias.zero_grad()
        dx = layer.backward(2 * (out - target))
        for p in (layer.weight, layer.bias):
            num = numerical_grad(loss_fn, p)
            np.testing.assert_allclose(p.grad, num, rtol=1e-5, atol=1e-7)
        # input gradient via perturbation of one entry
        eps = 1e-6
        x2 = x.copy()
        x2[0, 0] += eps
        num_dx = (float(((layer.forward(x2) - target) ** 2).sum())
                  - float(((layer.forward(x) - target) ** 2).sum())) / eps
        assert dx[0, 0] == pytest.approx(num_dx, rel=1e-4)

    def test_sageconv_gradient_check(self):
        rng = np.random.default_rng(1)
        conv = SageConv(3, 2, seed=2)
        h = rng.normal(size=(6, 3))
        adj = sp.random(6, 6, density=0.4, random_state=3, format="csr")
        adj_norm = SageConv.normalize_adj(adj)
        target = rng.normal(size=(6, 2))

        def loss_fn():
            return float(((conv.forward(h, adj_norm) - target) ** 2).sum())

        out = conv.forward(h, adj_norm)
        for p in conv.parameters():
            p.zero_grad()
        conv.backward(2 * (out - target))
        for p in conv.parameters():
            num = numerical_grad(loss_fn, p)
            np.testing.assert_allclose(p.grad, num, rtol=1e-5, atol=1e-7)

    def test_normalize_adj_rows_mean(self):
        adj = sp.csr_matrix(np.array([[0, 2.0, 2.0], [1.0, 0, 0], [0, 0, 0]]))
        norm = SageConv.normalize_adj(adj)
        np.testing.assert_allclose(
            np.asarray(norm.sum(axis=1)).ravel(), [1.0, 1.0, 0.0]
        )

    def test_softmax_cross_entropy(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        loss, dlogits, probs = softmax_cross_entropy(
            logits, np.array([0, 1])
        )
        assert loss < 0.01
        assert dlogits.shape == logits.shape
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_softmax_ce_mismatch(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))


class TestModel:
    def make_batch(self, seed=0, n=10, dim=6, classes=3):
        rng = np.random.default_rng(seed)
        adj = sp.random(n, n, density=0.3, random_state=seed, format="csr")
        return Batch(
            x=rng.normal(size=(n, dim)),
            adj=adj,
            ego_idx=np.array([0, 3, 7]),
            y=np.array([0, 1, 2]),
            global_ids=np.arange(n),
        )

    def test_forward_shape(self):
        model = ShadowSage(6, 8, 3, n_layers=2, seed=0)
        batch = self.make_batch()
        logits = model.forward(batch)
        assert logits.shape == (3, 3)

    def test_model_gradient_check(self):
        model = ShadowSage(4, 5, 2, n_layers=2, seed=1)
        rng = np.random.default_rng(2)
        adj = sp.random(7, 7, density=0.4, random_state=2, format="csr")
        batch = Batch(
            x=rng.normal(size=(7, 4)), adj=adj,
            ego_idx=np.array([1, 4]), y=np.array([0, 1]),
            global_ids=np.arange(7),
        )

        def loss_fn():
            logits = model.forward(batch)
            loss, _, _ = softmax_cross_entropy(logits, batch.y)
            return loss

        model.zero_grad()
        model.loss_and_grad(batch)
        # check a couple of parameters (full check is expensive)
        for p in (model.convs[0].w_nbr, model.head.weight, model.head.bias):
            num = numerical_grad(loss_fn, p)
            np.testing.assert_allclose(p.grad, num, rtol=1e-4, atol=1e-7)

    def test_flat_grads_roundtrip(self):
        model = ShadowSage(4, 5, 2, seed=3)
        batch = self.make_batch(seed=3, dim=4, classes=2)
        batch.y = np.array([0, 1, 1])
        model.zero_grad()
        model.loss_and_grad(batch)
        flat = model.flatten_grads()
        grads_before = [p.grad.copy() for p in model.parameters()]
        model.load_flat_grads(flat * 2)
        for p, before in zip(model.parameters(), grads_before):
            np.testing.assert_allclose(p.grad, before * 2)

    def test_flat_grads_wrong_size(self):
        model = ShadowSage(4, 5, 2, seed=4)
        with pytest.raises(ValueError):
            model.load_flat_grads(np.zeros(3))

    def test_single_batch_overfit(self):
        """The model can drive loss to ~0 on one fixed batch."""
        model = ShadowSage(6, 16, 3, seed=5)
        batch = self.make_batch(seed=5)
        opt = Adam(model.parameters(), lr=5e-2)
        losses = []
        for _ in range(60):
            model.zero_grad()
            loss, _ = model.loss_and_grad(batch)
            losses.append(loss)
            opt.step()
        assert losses[-1] < 0.05
        assert losses[-1] < losses[0] / 10


class TestOptimizers:
    def quadratic(self, opt_cls, **kw):
        from repro.gnn.layers import Parameter
        p = Parameter(np.array([5.0, -3.0]))
        opt = opt_cls([p], **kw)
        for _ in range(200):
            p.zero_grad()
            p.grad += 2 * p.value  # d/dx x^2
            opt.step()
        return p.value

    def test_sgd_converges(self):
        final = self.quadratic(SGD, lr=0.1)
        np.testing.assert_allclose(final, 0.0, atol=1e-6)

    def test_sgd_momentum_converges(self):
        final = self.quadratic(SGD, lr=0.05, momentum=0.9)
        np.testing.assert_allclose(final, 0.0, atol=1e-3)

    def test_adam_converges(self):
        final = self.quadratic(Adam, lr=0.1)
        np.testing.assert_allclose(final, 0.0, atol=1e-3)

    def test_invalid_lr(self):
        from repro.gnn.layers import Parameter
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(2))], lr=0.0)
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2))], lr=-1.0)


class TestFeatureStore:
    def test_split_and_gather(self):
        g = powerlaw_cluster(100, 5, seed=0)
        sharded = build_shards(g, HashPartitioner().partition(g, 3))
        feats = np.arange(300, dtype=np.float64).reshape(100, 3)
        shards = split_features(sharded, feats)
        for p, fs in enumerate(shards):
            rows = fs.gather(sharded.base[p] + np.arange(min(4, fs.n_rows)))
            expected = feats[sharded.shards[p].core_global[:len(rows)]]
            np.testing.assert_allclose(rows, expected)

    def test_split_size_mismatch(self):
        from repro.errors import ShardError
        g = powerlaw_cluster(50, 4, seed=1)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        with pytest.raises(ShardError, match="cover"):
            split_features(sharded, np.zeros((10, 3)))

    def test_gather_out_of_range(self):
        from repro.errors import ShardError
        fs = FeatureShard(0, 10, np.zeros((5, 2)))
        with pytest.raises(ShardError):
            fs.gather([17])
        with pytest.raises(ShardError):
            fs.gather([7])  # below the shard's range: another shard's id

    def test_assemble_rows(self):
        masks = {0: np.array([True, False, True]),
                 1: np.array([False, True, False])}
        parts = {0: np.array([[1.0], [3.0]]), 1: np.array([[2.0]])}
        out = assemble_rows(3, 1, parts, masks)
        np.testing.assert_allclose(out.ravel(), [1.0, 2.0, 3.0])


class TestSampler:
    def test_topk_ppr_nodes(self):
        g = powerlaw_cluster(200, 6, mixing=0.1, n_communities=4, seed=2)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        from tests.test_ppr_ops import run_hashmap_query
        state = run_hashmap_query(sharded, 10, PPRParams(epsilon=1e-5))
        top = topk_ppr_nodes(state, sharded, 16, include=np.array([10]))
        assert 10 in top
        assert len(top) <= 17
        assert np.all(np.diff(top) > 0)  # sorted unique

    def test_topk_invalid_k(self):
        g = powerlaw_cluster(50, 4, seed=3)
        sharded = build_shards(g, HashPartitioner().partition(g, 1))
        from tests.test_ppr_ops import run_hashmap_query
        state = run_hashmap_query(sharded, 0, PPRParams(epsilon=1e-4))
        with pytest.raises(ValueError):
            topk_ppr_nodes(state, sharded, 0)


class TestDistributedTraining:
    def test_learns_community_labels(self):
        g = powerlaw_cluster(1500, 10, mixing=0.08, n_communities=6, seed=4)
        feats, labels = community_task(1500, 6, 12, noise=0.4, seed=5)
        history = run_distributed_training(
            g, feats, labels, EngineConfig(n_machines=2),
            n_steps=12, batch_size=8, topk=24, lr=2e-2, seed=6,
        )
        assert history.steps == 12
        assert len(history.losses) == 12
        # learning signal: loss drops and accuracy beats random (1/6)
        assert history.losses[-1] < history.losses[0]
        assert history.final_accuracy() > 2 / 6

    def test_make_community_dataset_matches_graph(self):
        g = powerlaw_cluster(300, 5, seed=7)
        feats, labels = make_community_dataset(g, n_communities=4,
                                               feature_dim=8)
        assert feats.shape == (300, 8)
        assert labels.max() == 3

    def test_feature_dim_too_small(self):
        with pytest.raises(ValueError, match="feature_dim"):
            community_task(100, 8, 4)
