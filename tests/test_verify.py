"""Shared evaluations in `verify_many`: the same reports as `verify` one
entry at a time, one expansion per distinct (node, order), and nothing
kept once the batch is over."""

import dataclasses
import gc
import threading
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest

from qident import blocks, expr
from qident.catalog import catalog, get
from qident.dsl import parse_identity
from qident.expr import Add, Mul, Pow, Prim, QPow
from qident.series import SlotBudgetError
from qident.verify import Identity, verify, verify_many

THM31 = [idy for idy in catalog() if idy.id.startswith("thm31-")]


def _verdicts(reports):
    return [(r.id, r.order, r.status, r.resolved_sign, r.first_mismatch)
            for r in reports]


def _one_by_one(batch, order=None):
    return _verdicts([verify(idy, order) for idy in batch])


class TestSameReports:
    @pytest.mark.parametrize("order", [F(8), F(24), None])
    def test_whole_catalog(self, order):
        batch = catalog()
        assert _verdicts(verify_many(batch, order)) == _one_by_one(batch, order)

    def test_repeated_entries(self):
        batch = [get("thm31-i"), get("hcf-plus"), get("thm31-i"),
                 get("diff-313"), THM31[3], get("thm31-i")]
        assert _verdicts(verify_many(batch, F(24))) == _one_by_one(batch, F(24))

    @pytest.mark.parametrize("k", [F(0), F(5), F(47, 2)])
    def test_perturbed_copy_mismatches_at_k(self, k):
        # each copy shares every subtree with its original but its root
        copies = [Identity(f"{idy.id}+q^{k}", idy.lhs, Add(idy.rhs, QPow(k)),
                           idy.default_order)
                  for idy in THM31[1:]]  # the entries that verify with +1
        batch = [x for pair in zip(THM31[1:], copies) for x in pair]
        reports = verify_many(batch, F(24))
        assert _verdicts(reports) == _one_by_one(batch, F(24))
        assert [r.status for r in reports[0::2]] == ["verified"] * 5
        assert [r.status for r in reports[1::2]] == ["mismatch"] * 5
        assert {r.first_mismatch.exponent for r in reports[1::2]} == {k}

    def test_sign_tolerant_entries(self):
        batch = [get("diff-313"), get("thm31-i"), get("sum-318")]
        reports = verify_many(batch, F(20))
        assert [(r.status, r.resolved_sign) for r in reports] == [
            ("verified_with_sign_flip", -1), ("verified_with_sign_flip", -1),
            ("verified", 1)]
        assert _verdicts(reports) == _one_by_one(batch, F(20))


@pytest.fixture()
def builds(monkeypatch):
    """Count every primitive build by (name, argument, order)."""
    counts = Counter()
    for name, prim in expr.PRIMITIVES.items():
        def build(arg, order, name=name, inner=prim.build):
            counts[name, arg, F(order)] += 1
            return inner(arg, order)
        monkeypatch.setitem(expr.PRIMITIVES, name,
                            dataclasses.replace(prim, build=build))
    return counts


class TestSharing:
    def test_gamma_blocks_built_once_for_thm31(self, monkeypatch):
        calls = Counter()
        gamma_k = blocks.gamma_k

        def spy(k, order):
            calls[k, order] += 1
            return gamma_k(k, order)

        monkeypatch.setattr(blocks, "gamma_k", spy)
        verify_many(THM31)
        # G1(1/2) and G3(1/2) to q^20 are G1 and G3 to q^40, substituted
        assert calls == {(1, 40): 1, (3, 40): 1}
        calls.clear()
        for idy in THM31:
            verify(idy)
        assert sum(calls.values()) == 24

    @pytest.mark.parametrize("order", [F(24), None])
    def test_every_block_built_once_per_argument_and_order(self, builds, order):
        verify_many(catalog(), order)
        assert builds and set(builds.values()) == {1}


class TestNodeHash:
    @staticmethod
    def deep_tree(depth=200):
        node = QPow(F(1, 3))
        for j in range(1, depth):
            node = Mul(node, Pow(Prim("eta", F(j, 2)), F(1, j + 1)))
        return node

    def test_equal_trees_hash_equal(self):
        a, b = self.deep_tree(), self.deep_tree()
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert Add(a, b) == Add(b, a) and hash(Add(a, b)) == hash(Add(b, a))
        assert a != self.deep_tree(199) and a != Mul(a, QPow(F(0)))

    def test_second_hash_hashes_no_field(self, monkeypatch):
        # each node keeps its hash, so hashing the tree again reads one int
        # instead of rehashing every Fraction under it
        tree = self.deep_tree()
        first = hash(tree)
        calls = []
        fraction_hash = F.__hash__

        def counted(x):
            calls.append(x)
            return fraction_hash(x)

        monkeypatch.setattr(F, "__hash__", counted)
        assert hash(tree) == first
        assert hash(self.deep_tree()) == first
        assert calls  # the fresh tree hashed its fields
        calls.clear()
        assert hash(tree) == first
        assert calls == []


class TestIntegerGrid:
    def test_fraction_constructions_do_not_grow_with_the_order(self, monkeypatch):
        # series stay on their integer grids between operations, so the
        # Fractions made (bounds, hints, leading values) do not depend on
        # how many slots the thm31 expansions hold
        orders = (F(24), F(48))
        made = [0]
        fraction_new = F.__new__

        def counted(cls, *args, **kwargs):
            made[0] += 1
            return fraction_new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted)
        counts = []
        for order in orders:
            made[0] = 0
            reports = verify_many(THM31, order)
            counts.append(made[0])
        monkeypatch.undo()
        assert {r.status for r in reports} <= {"verified",
                                               "verified_with_sign_flip"}
        assert counts[0] == counts[1] > 0


class TestLifetime:
    def test_cache_only_inside_the_batch(self, monkeypatch):
        seen = []
        build = expr.PRIMITIVES["H"].build

        def look(arg, order):
            seen.append(expr._SHARED.get())
            other = threading.Thread(target=lambda: seen.append(expr._SHARED.get()))
            other.start()
            other.join()
            return build(arg, order)

        monkeypatch.setitem(expr.PRIMITIVES, "H", dataclasses.replace(
            expr.PRIMITIVES["H"], build=look))
        verify_many([get("hcf-plus")])
        assert seen[0] is not None and seen[1] is None  # not in another thread
        assert expr._SHARED.get() is None
        seen.clear()
        verify(get("hcf-plus"))
        assert seen and not any(seen)

    def test_cache_reset_when_a_batch_raises(self):
        lhs, rhs = parse_identity("phi(1/999983)*phi(1/999979) == phi(1)")
        batch = [get("hcf-plus"), Identity("huge", lhs, rhs, F(10))]
        with pytest.raises(SlotBudgetError):
            verify_many(batch, F(10))
        assert expr._SHARED.get() is None

    def test_repeated_nodes_evaluated_once_per_order(self, monkeypatch):
        caches = []

        class Recording(expr.SharedEvaluations):
            def __init__(self, roots):
                super().__init__(roots)
                self.occurrences = Counter(
                    n for root in roots for n in expr._occurrences(root))
                self.evaluated = Counter()
                caches.append(self)

        for cls in (expr.Add, expr.Sub, expr.Mul, expr.Pow, expr.Subst,
                    expr.Prim, expr.QPow, expr.Const):
            def spy(node, order, _evaluate=cls._evaluate):
                cache = expr._SHARED.get()
                if cache.occurrences[node] >= 2:
                    cache.evaluated[node, F(order)] += 1
                return _evaluate(node, order)

            monkeypatch.setattr(cls, "_evaluate", spy)
        monkeypatch.setattr(expr, "SharedEvaluations", Recording)
        verify_many(catalog(), F(24))
        verify_many(THM31 + THM31)
        for cache in caches:
            assert cache.entries
            assert set(cache.evaluated.values()) == {1}
            assert set(cache.evaluated) == set(cache.entries)
            assert all(cache.occurrences[n] >= 2 for n, _ in cache.entries)

    def test_cache_released_when_the_batch_ends(self, monkeypatch):
        caches = []

        class Watched(expr.SharedEvaluations):
            def __init__(self, roots):
                super().__init__(roots)
                caches.append(weakref.ref(self))

        monkeypatch.setattr(expr, "SharedEvaluations", Watched)
        verify_many(THM31, F(12))
        lhs, rhs = parse_identity("phi(1/999983)*phi(1/999979) == phi(1)")
        with pytest.raises(SlotBudgetError):
            verify_many([get("hcf-plus"), Identity("huge", lhs, rhs, F(10))], F(10))
        gc.collect()
        assert len(caches) == 2
        assert [ref() for ref in caches] == [None, None]

