"""Shared evaluations in `verify_many`: the same reports as `verify` one
entry at a time, one expansion per distinct (node, order), and nothing
kept once the batch is over."""

import gc
import json
import math
import threading
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest

from qident import backend, blocks, expr
from qident.catalog import catalog, get
from qident.dsl import parse_identity
from qident.expr import Add, Mul, Pow, Prim, QPow
from qident.series import PuiseuxSeries, SlotBudgetError
from qident.verify import MISMATCH, Identity, report_json, verify, verify_many

THM31 = [idy for idy in catalog() if idy.id.startswith("thm31-")]


def _verdicts(reports):
    return [(r.id, r.order, r.status, r.resolved_sign, r.first_mismatch)
            for r in reports]


def _one_by_one(batch, order=None):
    return _verdicts([verify(idy, order) for idy in batch])


def _meetings(roots):
    """How often a walk of the trees `roots` meets each node when it
    enters the nodes a node's evaluation asks for (`Node.asks`: its
    children, or the core of a product with scalar factors) only the
    first time it meets the node."""
    met = Counter()
    stack = list(roots)
    while stack:
        node = stack.pop()
        met[node] += 1
        if met[node] == 1:
            stack.extend(node.asks())
    return met


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


class TestReportJson:
    def test_a_mismatch_past_the_digit_limit_is_written_in_full(self):
        # both coefficients of q^199 are about binom(10^30, 199), some 5600
        # digits, more than str() writes under the default limit
        n = 10**30
        lhs, rhs = parse_identity(f"(1+q^(1))^({n}) == (1+q^(1))^({n}) + q^(199)")
        reports = verify_many([Identity("long", lhs, rhs, F(200))])
        assert reports[0].status == MISMATCH
        mm = json.loads(report_json(reports))[0]["first_mismatch"]
        assert mm["exponent"] == "199"
        want = math.comb(n, 199)
        for side, value in (("lhs", want), ("rhs", want + 1)):
            digits, irr = mm[side].split("+")
            assert irr == "0*sqrt2" and len(digits) > 4300
            read = 0  # int(digits), 400 digits at a time
            for i in range(0, len(digits), 400):
                read = read * 10**len(digits[i:i + 400]) + int(digits[i:i + 400])
            assert read == value


@pytest.fixture()
def builds(monkeypatch):
    """Count every primitive build by (name, argument, order)."""
    counts = Counter()
    for name, prim in expr.PRIMITIVES.items():
        def build(arg, order, name=name, inner=prim.build):
            counts[name, arg, F(order)] += 1
            return inner(arg, order)
        monkeypatch.setitem(expr.PRIMITIVES, name,
                            prim._replace(build=build))
    return counts


class TestSharing:
    def test_gamma_blocks_built_once_for_thm31(self, monkeypatch):
        calls = Counter()
        theta1_normalized = blocks.theta1_normalized

        def spy(k, order):
            calls[k, order] += 1
            return theta1_normalized(k, order)

        monkeypatch.setattr(blocks, "theta1_normalized", spy)
        verify_many(THM31)
        # G1(1/2) and G3(1/2) to q^20 fold to T1N(1) and T1N(3) to q^40,
        # substituted, over one map; each sum is built once per batch
        assert calls == {(1, 40): 1, (3, 40): 1}
        calls.clear()
        for idy in THM31:
            verify(idy)
        # on its own each entry builds both sums for each of its two terms
        assert calls == {(1, 40): 12, (3, 40): 12}

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


class TestWork:
    @pytest.mark.parametrize("batch, order, products", [
        # thm31's two left terms fold to T1N(1)^a T1N(3)^b over one map,
        # (q^(1/2);q^(1/2))^-3: its fill's cube (2), and per term the square
        # of one sum, its product with the other and the map times that (3
        # each), the new products being narrow ones; thm31-iii..vi scale
        # what thm31-i and -ii made.  In the catalog theta1-norm-1 and -3,
        # whose right sides fold to T1N(k) over an empty map, make none,
        # G1(1) and G3(1) one each and prodK three.  An f atom folds as its
        # theta sum: lemma-f1's left side is the product of two sums, and
        # the f(-q^a,-q^b)/eta(1) of diff-313's and sum-318's right sides
        # each its sum times the map 1/(q;q), products that the two terms
        # of comb-3113's right side share
        (THM31, F(96), 8),
        (catalog(), F(48), 37),
    ])
    def test_dense_products(self, monkeypatch, batch, order, products):
        made = []
        dense = PuiseuxSeries._mul_dense

        def spy(*args):
            made.append(args)
            return dense(*args)

        monkeypatch.setattr(PuiseuxSeries, "_mul_dense", spy)
        assert all(r.ok() for r in verify_many(batch, order))
        assert len(made) == products

    def test_theta_sum_products_call_no_kernel(self, monkeypatch):
        # the factorization rule f(q^a,q^(a+2b)) f(q^b,q^(2a+b)) =
        # f(q^a,q^b) psi(q^(a+b)) at a = 3/2, b = 2: each side a product of
        # two theta sums of 11 to 21 terms on 400 slots, so fewer term pairs
        # than slots
        calls = []
        kernel = backend.convolve_rational

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(backend, "convolve_rational", spy)
        lhs, rhs = parse_identity(
            "f(+q^(3/2),+q^(11/2))*f(+q^(2),+q^(5)) == f(+q^(3/2),+q^(2))*psi(7/2)")
        assert verify(Identity("factorization", lhs, rhs, F(200))).ok()
        assert calls == []

    def test_dense_thm31_products_stay_on_the_kernel(self, monkeypatch):
        # thm31 at 96 makes 8 products, four of them of two 192-slot series
        paths = []

        def spy(name):
            method = getattr(PuiseuxSeries, name)

            def traced(a, b, den, nout, trunc):
                paths.append((name, len(a.slots), len(b.slots), nout))
                return method(a, b, den, nout, trunc)

            monkeypatch.setattr(PuiseuxSeries, name, traced)

        spy("_mul_terms")
        spy("_mul_packed")
        assert all(r.ok() for r in verify_many(THM31, F(96)))
        assert len(paths) == 8
        assert [p for p in paths if p[1:] == (192, 192, 192)] == \
            [("_mul_packed", 192, 192, 192)] * 4

    def test_each_theta1_sum_built_once_for_prodk(self, monkeypatch):
        # G1(1)*G2(1)*G3(1) folds to T1N(1)*T1N(3) over one map
        made = []
        theta1 = blocks.theta1_normalized

        def spy(k, order):
            made.append((k, order))
            return theta1(k, order)

        monkeypatch.setattr(blocks, "theta1_normalized", spy)
        assert verify_many([get("prodK")], F(48))[0].ok()
        assert sorted(made) == [(1, F(48)), (3, F(48))]


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

        monkeypatch.setitem(expr.PRIMITIVES, "H",
                            expr.PRIMITIVES["H"]._replace(build=look))
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
                self.occurrences = _meetings(roots)
                self.evaluated = Counter()
                self.looked_up = set()
                caches.append(self)

            def evaluate(self, node, order):
                if (node, F(order)) in self.entries:
                    self.looked_up.add((node, F(order)))
                return super().evaluate(node, order)

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
        verify_many(THM31, F(96))
        for cache in caches:
            assert cache.entries
            assert set(cache.evaluated.values()) == {1}
            assert set(cache.evaluated) == set(cache.entries)
            assert all(cache.occurrences[n] >= 2 for n, _ in cache.entries)
        assert caches[-1].looked_up == set(caches[-1].entries)

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


class TestCollector:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    def test_paused_while_an_identity_expands(self, collecting, monkeypatch):
        seen = []
        inner = expr.PRIMITIVES["H"].build

        def look(arg, order):
            seen.append(gc.isenabled())
            return inner(arg, order)

        monkeypatch.setitem(expr.PRIMITIVES, "H",
                            expr.PRIMITIVES["H"]._replace(build=look))
        assert verify(get("hcf-plus")).ok()
        assert verify_many([get("hcf-plus"), get("hcf-plus")])[1].ok()
        assert seen and not any(seen)
        assert gc.isenabled() is collecting

    def test_restored_when_the_expansion_raises(self, collecting):
        lhs, rhs = parse_identity("phi(1/999983)*phi(1/999979) == phi(1)")
        with pytest.raises(SlotBudgetError):
            verify(Identity("huge", lhs, rhs, F(10)))
        assert gc.isenabled() is collecting
        with pytest.raises(SlotBudgetError):
            verify_many([get("hcf-plus"), Identity("huge", lhs, rhs, F(10))], F(10))
        assert gc.isenabled() is collecting

    def test_a_failed_expansion_is_reported_with_the_collector_restored(self, collecting):
        # a root of a series whose leading coefficient is not 1 fails
        # inside the expansion, and its report is made before the restore
        lhs, rhs = parse_identity("(2*phi(1))^(1/2) == phi(1)")
        assert verify(Identity("root", lhs, rhs, F(10))).status == "insufficient_precision"
        assert gc.isenabled() is collecting
