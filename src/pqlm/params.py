"""The type and range of every free parameter, and the one check of them.

Keys are the spec keys (``lambda`` and ``drift_N`` are a drift technique's
weight and depth) and the command arguments ``k_max`` and ``depth``.  A
bound that relates two values (mcdoc's ``m > alpha``, ``delta`` against the
corpus size) is checked where both are known.  Nothing from pqlm is
imported here, so that every module can read the table.
"""

import math
from numbers import Integral, Real

_COUNT = (int, lambda v: v >= 1, ">= 1")
_SIZE = (int, lambda v: v >= 0, ">= 0")

# key -> (number type, test of a value, the range it states)
RANGES = {
    **dict.fromkeys(("alpha", "alpha1", "alpha_cluster", "beta", "delta", "T", "N",
                     "drift_N", "k1", "k_max", "depth"), _COUNT),
    "m": (int, lambda v: True, "an integer"),  # bounded only by alpha, in mcdoc
    "t": _SIZE,
    "clip_k": _SIZE,
    "mu": (float, lambda v: 0 < v < math.inf, "a positive finite number"),
    "gamma": (float, lambda v: 0 <= v < math.inf, "a finite number >= 0"),
    "lambda": (float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "lambda_r": (float, lambda v: 0 < v < 1, "strictly between 0 and 1"),
}

# number type -> (the values it admits, their noun); a bool is neither
NUMBERS = {int: (Integral, "an integer"), float: (Real, "a number")}


def check(**values) -> None:
    """ValueError ``<key> must be <range>, got <key>=<value>`` for the first
    value, in argument order, outside its key's range; None, a missing
    value, is outside every range, and a value not of its key's number type
    is ``<key> must be <noun>``."""
    for key, value in values.items():
        number, test, stated = RANGES[key]
        admitted, noun = NUMBERS[number]
        if value is not None and (isinstance(value, bool) or not isinstance(value, admitted)):
            raise ValueError(f"{key} must be {noun}, got {key}={value!r}")
        if value is None or not test(value):
            raise ValueError(f"{key} must be {stated}, got {key}={value}")
