"""Sign-tolerant identity verification and report serialization."""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from typing import NamedTuple, Optional

from .expr import Node, evaluate_to_order, shared_evaluations
from .field import AlgebraicNumber
from .series import (
    InsufficientPrecisionError,
    LeadingCoefficientError,
    Mismatch,
    _fr,
)

VERIFIED = "verified"
SIGN_FLIP = "verified_with_sign_flip"
MISMATCH = "mismatch"
INSUFFICIENT = "insufficient_precision"

_MINUS_ONE = AlgebraicNumber(-1)

# too few terms, a root without unit leading coefficient, a zero divisor
EVALUATION_FAILURES = (InsufficientPrecisionError, LeadingCoefficientError,
                       ZeroDivisionError)


class Identity(NamedTuple):
    """A catalog entry: two expression trees expected to agree as series.

    `sign_tolerant` entries are certified up to a global sign: the engine
    accepts lhs == -rhs exactly and records which sign held, so a source
    whose printed sign is in doubt is checked without endorsing either.
    """

    id: str
    lhs: Node
    rhs: Node
    default_order: Fraction
    paper_ref: str = ""
    sign_tolerant: bool = False


class VerificationReport(NamedTuple):
    id: str
    paper_ref: str
    order: Fraction
    status: str
    resolved_sign: Optional[int]
    first_mismatch: Optional[Mismatch]
    elapsed_ms: float

    def ok(self) -> bool:
        return self.status in (VERIFIED, SIGN_FLIP)


def verify(identity: Identity, order=None) -> VerificationReport:
    """Expand both sides to `order` and compare coefficientwise.

    Status is `verified` (exact equality, sign +1), or — only for
    sign-tolerant entries — `verified_with_sign_flip` when lhs == -rhs
    exactly; otherwise `mismatch` with the smallest differing exponent.
    Evaluation failures surface as `insufficient_precision`.

    The cyclic garbage collector is paused while the identity expands,
    as :mod:`timeit` pauses it, and restored as it was found, so that
    `elapsed_ms` times the expansion and not a collection of what earlier
    work left; a collection that is due runs once the clock has stopped.
    """
    order = _fr(order) if order is not None else identity.default_order
    t0 = time.perf_counter()

    def report(status, sign, mm):
        elapsed = (time.perf_counter() - t0) * 1000.0
        return VerificationReport(
            identity.id, identity.paper_ref, order, status, sign, mm, elapsed
        )

    collecting = gc.isenabled()
    gc.disable()
    try:
        lhs = evaluate_to_order(identity.lhs, order)
        rhs = evaluate_to_order(identity.rhs, order)
        mm = lhs.first_mismatch(rhs, order)
        if mm is None:
            return report(VERIFIED, 1, None)
        if identity.sign_tolerant:
            if lhs.first_mismatch(rhs.scale(_MINUS_ONE), order) is None:
                return report(SIGN_FLIP, -1, None)
        return report(MISMATCH, None, mm)
    except EVALUATION_FAILURES:
        return report(INSUFFICIENT, None, None)
    finally:
        if collecting:
            gc.enable()


def verify_many(identities, order=None) -> list[VerificationReport]:
    """Verify in the given order; aggregation is deterministic by position.

    Unlike one :func:`verify` call per entry, the batch shares its node
    evaluations (:func:`~qident.expr.shared_evaluations`): a subexpression
    that recurs across or within entries, requested at the same order, is
    expanded once and held until the call returns.  The reports are
    those of :func:`verify` one by one; entries with different default
    orders stay apart, because the order is part of the key.
    """
    identities = list(identities)
    with shared_evaluations([side for idy in identities
                             for side in (idy.lhs, idy.rhs)]):
        return [verify(idy, order) for idy in identities]


def report_json(reports) -> bytes:
    """UTF-8 JSON array with a fixed key order, stable across runs.

    Rationals are serialized as strings to keep them exact; elapsed_ms is
    serialized as 0 so that repeated runs are byte-identical (wall-clock
    timings stay on the human-readable output).
    """
    import json  # only the --json report needs it

    payload = []
    for r in reports:
        mm = None
        if r.first_mismatch is not None:
            mm = {
                "exponent": str(r.first_mismatch.exponent),
                "lhs": r.first_mismatch.lhs.render(),
                "rhs": r.first_mismatch.rhs.render(),
            }
        payload.append(
            {
                "id": r.id,
                "paper_ref": r.paper_ref,
                "order": str(r.order),
                "status": r.status,
                "resolved_sign": r.resolved_sign,
                "first_mismatch": mm,
                "elapsed_ms": 0,
            }
        )
    return json.dumps(payload, indent=2).encode("utf-8")
