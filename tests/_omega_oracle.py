"""The reference for omega_mp's step index: a bisection on ln p.

It assumes nothing about the form's inverse quotient.  It brackets the
largest ln p with ln mu_p <= ln t, doubling from [0, 8] and refusing past
ln p = max(1e12, 1e6 (1 + |ln t|)), halves the bracket 70 times and takes
the best term at floor(p) - 1, floor(p), floor(p) + 1.  It ends up to about
1.5e-5 below ln p*, where omega is flat to second order, so omega_mp must
lie within a relative 1e-9 of it and never below it by more than rounding.
"""

import mpmath as mp

from weightseq.errors import UntrustedEvaluationError
from weightseq.weights import _bracket_bisect, _step_term


def _omega_mp_bisect(M, logt):
    """(term, p) of omega_mp at the mpf ln t, by bisection on ln p."""
    form = M.generator
    cap = mp.mpf(max(1e12, 1e6 * (1.0 + abs(float(logt)))))
    bracket = _bracket_bisect(lambda u: form.log_mu_mp(mp.exp(u)) <= logt,
                              mp.mpf(0), mp.mpf(8.0), cap, 70)
    if bracket is None:
        raise UntrustedEvaluationError(
            f"omega_mp: quotients of {M.name} never exceed the argument")
    best = _step_term(form, logt, mp.floor(mp.exp(bracket[0])))
    return (mp.mpf(0), 0) if best is None else best
