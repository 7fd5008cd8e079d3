"""JSON interchange for matrices, distributions, conditional tables, hybrid
states, scenario configs and results.

Matrix encoding: {"dim": n, "entries": [[re, im], ...]} with exactly n^2
row-major entries, each a pair of finite reals.  Floats are printed with 17
significant digits, so every value but a zero's sign round-trips exactly and
repeated writes are byte-identical.  That sign is lost on purpose: -0.0 prints
as "-0", a JSON int, which json reads as 0 and so does the reader below, on
every path and at every size.

A writer that holds matrices (``matrix_to_json``, ``hybrid_to_json``,
``pooling_report_to_json``, ``scenario_config_to_json``,
``scenario_result_to_json``) is defined once, as a tree in which each
matrix's "entries" is a ``_Pairs``: the matrix's contiguous (n^2, 2) float
view.  The public name returns the tree as plain JSON lists; ``cli`` prints
the tree itself, ``io.dumps(writer.tree(obj))``, so each matrix goes from its
array to the printer with one finiteness check, and no list of pairs is built.
That is the only way to the printer's kernel: ``dumps`` prints a plain list
value by value, with the same bytes, so a plain d = 64 config takes about 47
ms to ``dumps`` and its tree about 5.5 ms (one BLAS thread, 2-vCPU host).
``matrix_from_json`` converts a list of pairs with one ``np.array``; other lists
go entry by entry with the same text and messages.  An integer entry beyond
float range is non-finite input: MalformedInputError, CLI exit 2.

Both directions take a document's matrices, in text order, in runs of at most
1024 pairs (``_runs``), and a larger matrix (d >= 32) is a run of its own.  A
run is printed with one kernel call from 256 pairs and read with one from 512,
so a d = 16 config's three matrices take one call each way.  A run of one goes
to the kernel as its matrix's own array or its view of the text, a longer run
as its rows or spans joined, parted after the call.

``cli`` reads each file through ``_read``, which reads the "entries" arrays in
the writer's layout ("[[", ", ", "], [", "]]") straight into their (n^2, 2)
arrays, each a ``_Pairs`` that ``matrix_from_json`` takes after its "dim"
check, so no list of pairs is built on the way in either.  A text with 512 "["
or fewer holds too few pairs for any run, so no "entries" in it is looked for.
Each value is the float json and ``np.array`` make of its token.
The kernel reads "-"?, one digit, ".", f digits, then "e-0X" or nothing: the
printer's fixed point and exponent forms.  There the value is N / 10**k, N
the digits and k = f + X <= 22, so 10**k is an exact double: below 2**53 one
division rounds correctly, and above it the quotient moves by the residual
N - q * 10**k, which Dekker's product gives, and is kept only where the next
residual proves it the nearest double.  It reads an int of up to 18 digits
as N, and "-0" as 0, as json does.  A near-tie, and every other token
("1e-07", "1E-3", a longer int), goes to ``int`` or ``float`` as json would
take it, once it matches JSON's number grammar.  A run in any other layout
is left to ``json.loads``.  A token JSON rejects, an int beyond float range, non-ASCII
text, a constant ("NaN"), a tree that does not decode or an array
``matrix_from_json`` never took (a duplicate key, an "entries" that is no
matrix's) sends the whole text back to ``json.loads``, so every outcome,
error or not, is its outcome.

``dumps`` walks the tree once into a list of parts and joins it once.  It
checks each matrix's finiteness where the matrix stands, so the first
non-finite value in document order is the one named, and leaves it a slot
between "[" and "]" that its run's text fills after the walk.  A newline after
each matrix's last pair parts a longer run's kernel text; a run below 256
pairs prints each value with "%.17g", since there numpy's cost per call
outweighs what the kernel saves.  The kernel prints the text "%.17g" would,
without the float printer.  Its domain is a zero of either sign ("0", "-0")
and |x| in (0, 1) with decimal exponent X >= -6.  There N, the 17 digits of
round(|x| * 10**(16 - X)) with trailing zeros dropped, is an integer that
Dekker's exact product gives, since 10**(16 - X) is an exact double up to
10**22.  For X >= -4 "%g" is fixed point: "0.", -X - 1 zeros, then N; for
X = -5 and -6 it is the exponent form: N's first digit, ".", the rest of N,
then "e-05" or "e-06".  An exact tie, a digit count off by one and every
value outside the domain (|x| >= 1, |x| < 1e-6) go to "%.17g".

One gate, ``_object``, decides which keys an object may have: every key its
kind requires and none its encoder never writes, so a misspelled key is
MalformedInputError, never dropped.  It checks every object io reads: a
matrix, a distribution, a conditional table, a hybrid state, a config, a
pipeline and each of the five kinds of pipeline step.

One table, ``_STEPS``, maps each step type to its exact class and its (JSON
field, attribute) pairs; ``_step_to_json`` and ``_step_from_json`` read
only it.  {"type": "unitary", "matrix": m} is a ``UnitaryDynamics``,
{"type": "channel", "kraus": [m, ...]} a ``KrausChannel``, whatever channel
the list came from, and the detector channels go by name and parameter:
{"type": "depolarizing" | "dephasing", "dim": d, "strength": p} and
{"type": "replacement", "dim": d, "target": t}.  A step of any other class,
a subclass of one of these too, has no JSON form.

Beyond the gate, io checks a matrix's "dim" and entries, a hybrid state's
block keys and "outcomes", that every field it iterates is a JSON list and
each of its bool fields a bool (``_field``: a string is no list of its
characters, an object no list of its keys), and that a pipeline's "name" is
a string.  Every other value goes as read to the class that takes it, whose
rule (``linalg._integer``, ``_real``) rejects a string, a bool, None or a
float where an integer is due; one guard, ``_guard``, turns whatever a
constructor rejects while an object decodes into MalformedInputError.
"""

from __future__ import annotations

import functools
import json
import re
from contextlib import suppress
from itertools import accumulate, chain

import numpy as np

from .compatibility import CompatibilityVerdict, ConditionalDistribution, ProbabilityDistribution
from .errors import DimensionMismatchError, InvalidParameterError, MalformedInputError
from .linalg import Subspace, Tolerances
from .pooling import PoolingReport
from .regions import HybridState
from .scenario import (
    AgentPipeline, DephasingChannel, DepolarizingChannel, KrausChannel, ReplacementChannel,
    ScenarioConfig, ScenarioResult, UnitaryDynamics,
)


def _keys(what: str, keys: tuple, optional: tuple = ()) -> tuple:
    """(required keys, allowed keys, message) of one kind of object, built once."""
    def listed(names):
        return ", ".join(f'"{k}"' for k in names[:-1]) + f' and "{names[-1]}"'
    message = (f"{what} must have keys {listed(keys)}, and may also have {listed(optional)}"
               if optional else f"{what} must have exactly keys {listed(keys)}")
    return frozenset(keys), frozenset(keys + optional), message


def _object(obj, keys: tuple) -> dict:
    """``obj``, once it is a JSON object with the keys ``_keys`` allows."""
    required, allowed, message = keys
    if not isinstance(obj, dict) or not required <= obj.keys() <= allowed:
        raise MalformedInputError(message)
    return obj


def _field(obj, key, default, kind: type):
    """``obj[key]`` (``default`` when absent), once it is exactly a ``kind``."""
    if type(value := obj.get(key, default)) is not kind:  # exact: a JSON 1 is no bool
        raise MalformedInputError(f'"{key}" must be a {kind.__name__}, got {value!r}')
    return value


_MATRIX = _keys("matrix object", ("dim", "entries"))
_DISTRIBUTION = _keys("distribution object", ("outcomes", "probs"))
_CONDITIONAL = _keys("conditional table", ("given_outcomes", "out_outcomes", "table"))
_HYBRID = _keys("hybrid state", ("classical_dims", "blocks"), ("outcomes", "normalized"))
_CONFIG = _keys("scenario config", ("prior", "pipelines"),
                ("rank_tol", "herm_tol", "seed", "pool_against_evolved", "evolved_by"))
_PIPELINE = _keys("pipeline", ("name", "steps"))


def _guard(what: str):
    """Decorate a decoder: a ValueError or TypeError a constructor raises while it
    runs comes out as MalformedInputError, "bad ``what``: ..."."""
    def decorate(decode):
        @functools.wraps(decode)
        def guarded(obj):
            try:
                return decode(obj)
            except MalformedInputError:
                raise
            except (ValueError, TypeError) as exc:  # labels that do not hash or sort, too
                raise MalformedInputError(f"bad {what}: {exc}") from exc
        return guarded
    return decorate


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


# The fixed-point kernel (module docstring) prints "%.17g" of v from its decimal exponent X
# and N = round(|v| * 10**(16 - X)) without trailing zeros: "-" if v's sign bit is set,
# then "0.", -X - 1 zeros and N for X = -1 .. -4, or N's first digit, "." and the rest
# of N, then "e-0{-X}", for X = -5, -6; a zero is "0".
_KERNEL_PAIRS = 256  # below it, numpy's cost per call outweighs the gain
_GROUP_PAIRS = 1024  # most pairs a run holds: a matrix this large is a run of its own
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter: v = hi + lo, 26 significant bits each
_TENS = np.array([float(10 ** k) for k in range(23)])  # 10**k, an exact double up to 10**22
_POWERS = 10 ** np.arange(18, dtype=np.int64)  # searchsorted(_POWERS, N, "right"): N's digits


def _split(v):
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


_TENS_HI, _TENS_LO = _split(_TENS)


def _times_ten(v, k):
    """(p, e) with p + e == v * 10**k exactly, p the rounded product: Dekker's product,
    exact for the positive v of the kernels, which neither overflow nor underflow."""
    p = v * _TENS[k]
    v_hi, v_lo = _split(v)
    hi, lo = _TENS_HI[k], _TENS_LO[k]
    return p, ((v_hi * hi - p) + v_hi * lo + v_lo * hi) + v_lo * lo


# A prefix is the sign, a head ("", "0.", "1.", .. "9.") and up to 15 zeros: the fixed
# form's -X - 1, or the leading zeros of what follows an exponent form's first digit.
_PREFIXES = np.array([[[sign + head + "0" * zeros for zeros in range(16)]
                       for head in ("", *(f"{lead}." for lead in range(10)))]
                      for sign in ("", "-")], dtype=object)  # at (signbit, head, zeros)
_PAIR_FORMATS = np.array([f"[%s%s{re}, %s%s{im}]" for re in ("", "e-05", "e-06")
                          for im in ("", "e-05", "e-06")], dtype=object)  # at 3 * re + im


def _fixed_point(a: np.ndarray):
    """(-X - 1, N, indices left to the float printer) of each value of the flat array
    ``a``, N = 0 for a zero; a function of its own, so its float temporaries are freed
    on return."""
    ax = np.abs(a)
    with np.errstate(divide="ignore"):  # log10(0) is -inf: clipped, then outside
        x = np.clip(np.floor(np.log10(ax)), -7, 0).astype(np.int64)
    inside = (x >= -6) & (x <= -1)  # |v| < 1, and 10**(16 - X) an exact double; 0 is -7
    k = np.where(inside, -1 - x, 0)
    v = np.where(inside, ax, 0.5)  # outside values take no part in the arithmetic
    p, e = _times_ten(v, 17 + k)  # p + e == v * 10**(16 - X)
    whole = np.floor(e)
    frac = e - whole
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    # An exact tie goes to the float printer, and so does any N without 17 digits: a
    # log10 one too low gives 10**17 or more, one too high 10**16 or less.  N = 10**16
    # goes there too, so no value just below 10**X can round up into the range.
    zero = ax == 0
    fallback = np.flatnonzero(~(inside | zero) | (frac == 0.5) | (n <= 10 ** 16)
                              | (n >= 10 ** 17))
    n[zero] = 0
    return k, n, fallback


def _print_pairs(a: np.ndarray, ends=()) -> str:
    """The rows of the finite (n, 2) float array ``a`` as "[%.17g, %.17g]", joined by ", ",
    with a newline after each row that ends a matrix of a run: row i - 1, i in ``ends``."""
    a = a.reshape(-1)
    k, n, fallback = _fixed_point(a)
    n[fallback], k[fallback] = 1, 0  # a placeholder in the fixed form, replaced below
    zeros = np.flatnonzero((n % 10 == 0) & (n > 0))
    while zeros.size:  # drop trailing zeros
        n[zeros] //= 10
        zeros = zeros[n[zeros] % 10 == 0]
    head, shift = (n > 0).astype(np.int64), k.copy()  # "0." and -X - 1 zeros; "" for a zero
    # X = -5, -6: N = lead * 10**m + rest, lead one digit, and rest > 0, for no double
    # there rounds to 17 digits as D * 10**X (tests/test_matrix_json.py checks each D)
    sci = np.flatnonzero(k >= 4)
    m = np.searchsorted(_POWERS, n[sci], "right") - 1
    lead, rest = np.divmod(n[sci], _POWERS[m])
    head[sci], shift[sci], n[sci] = lead + 1, m - np.searchsorted(_POWERS, rest, "right"), rest
    prefixes = _PREFIXES[np.signbit(a).astype(np.intp), head, shift].tolist()
    digits = n.tolist()
    for i, value in zip(fallback.tolist(), a[fallback].tolist()):
        prefixes[i], digits[i] = "%.17g" % value, ""
    args = [None] * a.size * 2
    args[::2], args[1::2] = prefixes, digits
    suffix = np.where(k >= 4, k - 3, 0)  # "", "e-05", "e-06"
    formats = _PAIR_FORMATS[3 * suffix[::2] + suffix[1::2]].tolist()
    for end in ends:  # "\n, " then parts the text of a run into its matrices'
        formats[end - 1] += "\n"
    return ", ".join(formats) % tuple(args)


def _print_run(arrays: list) -> list:
    """The texts "[re, im], ..." of the finite (n, 2) float ``arrays``, a run: with one
    kernel call from ``_KERNEL_PAIRS`` rows in all on, a lone array from its own memory;
    else each with one format, every value through "%.17g"."""
    *ends, rows = accumulate(map(len, arrays))
    if rows < _KERNEL_PAIRS:
        return [", ".join(["[%.17g, %.17g]"] * len(a)) % tuple(a.reshape(-1).tolist()) for a in arrays]
    if not ends:
        return [_print_pairs(arrays[0])]
    return _print_pairs(np.concatenate(arrays), ends).split("\n, ")


def _runs(items: list, pairs):
    """``items`` in order, in runs of at most ``_GROUP_PAIRS`` pairs (``pairs(item)``
    each): a run ends before the item that would take it past them, so an item of
    ``_GROUP_PAIRS`` pairs or more is a run of its own."""
    run, held = [], 0
    for item in items:
        held += (n := pairs(item))
        if held > _GROUP_PAIRS and run:
            yield run
            run, held = [], n
        run.append(item)
    if run:
        yield run


class _Pairs:
    """A matrix's "entries" as its contiguous (n^2, 2) float array: in a writer's tree,
    which ``_encode`` prints and ``_plain`` turns into the [[re, im], ...] lists, and in
    the tree ``_read`` decodes, where ``matrix_from_json`` takes it (``a`` is then None)."""

    __slots__ = ("a",)

    def __init__(self, a: np.ndarray):
        self.a = a


def _plain(obj):
    """A writer's tree as plain JSON: every ``_Pairs`` as its lists of two floats."""
    if isinstance(obj, _Pairs):
        return obj.a.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


def _writer(tree):
    """The public writer whose one definition is ``tree``, which builds the object with
    each matrix's entries as a ``_Pairs``: the writer returns it as plain JSON, and
    ``cli`` prints ``writer.tree``'s object, whose matrices need no lists."""
    @functools.wraps(tree)
    def to_json(obj):
        return _plain(tree(obj))
    to_json.tree = tree
    return to_json


# The reader (module docstring) takes a matrix's "entries" from the text into its (n^2, 2)
# array where the writer's layout holds them, in runs of _READ_PAIRS pairs or more.
_READ_PAIRS = 512  # below it, numpy's cost per call outweighs the gain
_ENTRIES = '"entries": [['
_BLOCK = 2 ** 16  # bytes a count of the text's "[" takes at a time
_OPEN, _COMMA, _CLOSE = (np.frombuffer(b, np.uint8) for b in (b"[", b", ", b"]"))
_NUMBER = re.compile(rb"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")  # JSON's grammar
_MARGIN = 1 - 2.0 ** -40  # a residual this close to half an ulp is a near-tie


def _words(*rows):
    """Rows of 24 bytes as rows of three 64-bit words, the same bytes in memory order."""
    return np.array(rows, np.uint8).view(np.uint64)


# A window is the 24 bytes that end at a mantissa's last digit, as three words; byte
# masks work on all eight bytes of a word at once (fraction: 0xff on its last f bytes).
_FRACTION = _words(*([0] * (24 - f) + [255] * f for f in range(25)))
_LOW, _SIX, _HIGH, _THREES = (_words([v] * 24)[0, 0] for v in (0x0F, 0x06, 0xF0, 0x30))
_HEAD = _words([255] * 6 + [0] * 18)[0, 0]  # a window's first six bytes: N's digits take 18
_PLACES = np.zeros((9, 2))  # N's last 18 digits, as 9 two-digit values, in two exact blocks
_PLACES[:4, 0], _PLACES[4:, 1] = 100.0 ** np.arange(3, -1, -1), 100.0 ** np.arange(4, -1, -1)


def _json_number(token: bytes) -> float:
    """The float ``json.loads`` and then ``np.array`` make of the ASCII ``token``: an int
    through ``int``, so "-0" is +0.0, and the other forms through ``float``."""
    if (m := _NUMBER.fullmatch(token)) is None:
        raise ValueError(f"{token!r} is not a JSON number")
    return float(token) if m.group(1) or m.group(2) else float(int(token))


def _nearest(n, k):
    """The double nearest n / 10**k for each int64 n < 10**18 and k <= 22, NaN at a
    near-tie.  Below 2**53 n and 10**k are exact doubles, so one division rounds
    correctly.  Above it the quotient q takes Newton's step by its residual
    r = n - q * 10**k, which Dekker's product gives rounded once (q * 10**k = p + e
    exactly, and p, within two ulps of n, is an integer); the new quotient is kept
    where its residual, r less the step times 10**k, is within half the ulp below it."""
    tens = _TENS[k]
    q = n / tens
    p, e = _times_ten(q, k)
    r = (n - p.astype(np.int64)).astype(float) - e
    step = q + r / tens
    r = r - (step - q) * tens  # the step, a few ulps, is exact; r errs by < 2**-49 half-ulps
    near = 2 * np.abs(r) < (step - np.nextafter(step, 0)) * tens * _MARGIN
    return np.where(n < 2 ** 53, q, np.where(near, step, np.nan))


def _fraction(b: np.ndarray, end, f):
    """(F, read): F the integer the ``f`` bytes of ``b`` that end at each ``end`` spell
    where they are ASCII digits with none but "0" before the last 18, and ``read`` where
    they are; a function of its own, so its window temporaries are freed on return."""
    digits = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((np.zeros(24, np.uint8), b)), 24)[end + 1].view(np.uint64)
    bad = np.take(_FRACTION, np.clip(f, 0, 24), axis=0)
    digits &= bad  # the fraction's bytes, 0 elsewhere
    bad &= _THREES  # in place, as each step below: 0 where a fraction byte is "0" .. "9"
    bad ^= digits & _HIGH
    digits &= _LOW
    bad |= (digits + _SIX) & _HIGH
    read = (bad[:, 0] | bad[:, 1] | bad[:, 2] | (digits[:, 0] & _HEAD)) == 0
    del bad
    digits = digits.view(np.uint8)
    blocks = ((digits[:, 6::2] * np.uint8(10) + digits[:, 7::2]) @ _PLACES).astype(np.int64)
    return blocks[:, 0] * 10 ** 10 + blocks[:, 1], read


def _read_pairs(b: np.ndarray) -> np.ndarray | None:
    """The (n, 2) float array of the ASCII bytes ``b``, "[[re, im], [re, im], ...]" with
    the writer's separators (", " in a pair, "], [" between pairs), or None with others.
    Every value is the float ``json.loads`` and ``np.array`` make of its token; a token
    that is no JSON number (one with a space or a bracket, too) raises ValueError, and
    an int beyond float range OverflowError."""
    commas = np.flatnonzero(b == 44)
    inner, outer = commas[::2], commas[1::2]
    if (commas.size % 2 == 0 or (b[inner + 1] != 32).any() or (b[outer - 1] != 93).any()
            or (b[outer + 1] != 32).any() or (b[outer + 2] != 91).any()):
        return None
    first, last = np.empty(commas.size + 1, np.intp), np.empty(commas.size + 1, np.intp)
    first[0], first[1::2], first[2::2] = 2, inner + 2, outer + 3
    last[-1], last[:-1:2], last[1:-1:2] = b.size - 3, inner - 1, outer - 2
    if (last < first).any():  # an empty token
        return None
    # The kernel reads "-"?, one digit, ".", f >= 1 digits (the fraction), then "e-0X"
    # (X = 1..9) or nothing: N / 10**k, N its digits, k = f + X <= 22; and an int of
    # at most 18 digits, "-"? then "0" or a digit string without a leading "0": N.
    neg = b[first] == 45
    lead = b[first + neg] - 48  # uint8: a non-digit is 10 or more
    sci = ((last - first >= 5) & (b[last - 3] == 101) & (b[last - 2] == 45)
           & (b[last - 1] == 48) & (b[last] - 49 < 9))
    end = last - 4 * sci  # the mantissa's last byte
    point = b[first + neg + 1] == 46
    f = end - first - neg - 1 + 2 * ~point  # an int's digits are its "fraction"
    k = (f + sci * (b[last] - 48)) * point
    n, read = _fraction(b, end, f)
    read &= np.where(point, (lead < 10) & (f >= 1) & (k <= 22) & ((lead == 0) | (f <= 17)),
                     ~sci & (f >= 1) & (f <= 18) & ((lead != 0) | (f == 1)))
    n = (n + lead * _POWERS[np.minimum(f, 17)] * point) * read
    # json reads "-0", an int, as 0, and "-0.0" as -0.0
    values = _nearest(n, k * read) * (1 - 2 * (neg & (point | (n > 0))))
    if (rest := np.flatnonzero(~read | np.isnan(values))).size:
        raw = b.tobytes()
        values[rest] = [_json_number(raw[i:j + 1])
                        for i, j in zip(first[rest].tolist(), last[rest].tolist())]
    return values.reshape(-1, 2)


def _spans(text: str, raw: np.ndarray) -> list:
    """(start, stop, pairs) of each "entries" array of ``text`` (``raw``, its bytes): from
    its "[[" to the first "]]" after it, with one pair for each "[" but the first."""
    spans, stop = [], 0
    while (found := text.find(_ENTRIES, stop)) >= 0:
        start = found + len(_ENTRIES) - 2
        if (stop := text.find("]]", start) + 2) < 2:
            break
        spans.append((start, stop, np.count_nonzero(raw[start:stop] == 91) - 1))
    return spans


def _read_run(raw: np.ndarray, run: list) -> list:
    """The arrays of the spans ``run`` of ``raw``, read with one ``_read_pairs`` call: a
    lone span as its view, a longer run as one "[[re, im], ...]" array; Nones if it does
    not read.  Where it reads, every "[" is a pair's, so each span holds the pairs it counts."""
    if len(run) == 1:
        return [_read_pairs(raw[run[0][0]:run[0][1]])]
    pieces = [_OPEN]
    for start, stop, _ in run:
        pieces += [raw[start + 1:stop - 1], _COMMA]  # its pairs, "[re, im], ..., [re, im]"
    pieces[-1] = _CLOSE
    if (a := _read_pairs(np.concatenate(pieces))) is None:
        return [None] * len(run)
    return np.split(a, np.cumsum([pairs for _, _, pairs in run[:-1]]))


def _read_tree(text: str):
    """(tree, holders): ``tree`` is ``json.loads(text)`` with each "entries" that
    ``_read_pairs`` reads as a ``_Pairs``, ``holders`` those in text order.  The
    "entries" go in runs (``_runs``), each read where it holds ``_READ_PAIRS`` pairs.
    None if it reads none.
    Each read array stands in the text as "NaN", which json hands to ``parse_constant``;
    a constant the text already holds takes an array out of turn, so the last "NaN"
    finds none and the read fails."""
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), np.uint8)
    # each pair has a "[": count them a block at a time, so no text-sized temporary is made
    counts = (np.count_nonzero(raw[i:i + _BLOCK] == 91) for i in range(0, raw.size, _BLOCK))
    if not any(n > _READ_PAIRS for n in accumulate(counts)):  # too few pairs to read
        return None
    spans = _spans(text, raw)
    read = dict.fromkeys(spans)
    for run in _runs(spans, lambda span: span[2]):
        if sum(pairs for _, _, pairs in run) >= _READ_PAIRS:
            read.update(zip(run, _read_run(raw, run)))
    pieces, held, at = [], [], 0  # the text up to ``at`` is in ``pieces``
    for (start, stop, _), a in read.items():
        if a is not None:
            pieces += [text[at:start], "NaN"]
            held.append(_Pairs(a))
            at = stop
    if not held:
        return None
    given = iter(held)
    return json.loads("".join(pieces) + text[at:], parse_constant=lambda _: next(given)), held


def _read(text: str, decode, loads):
    """``decode(loads(text))``: its value, or what it raises, with each matrix's
    "entries" the reader reads handed to ``matrix_from_json`` as a ``_Pairs``.  Where
    the text has a token JSON rejects, where that tree does not decode, or where it
    decodes but leaves a read array that ``matrix_from_json`` never took (an "entries"
    that is no matrix's, a duplicate key), it decodes again from ``loads(text)``."""
    with suppress(Exception):  # what loads(text) then raises is what the caller reports
        if (read := _read_tree(text)) is not None:
            tree, held = read
            out = decode(tree)
            if all(h.a is None for h in held):
                return out
    return decode(loads(text))


def _is_pair_list(obj) -> bool:
    """Whether ``obj`` is a nonempty list of plain two-element lists, by C-level sets."""
    return bool(obj) and set(map(type, obj)) == {list} and set(map(len, obj)) == {2}


def _encode(obj, parts: list, slots: list) -> None:
    """Append the JSON text of ``obj`` to ``parts``, floats with 17 significant digits.
    A ``_Pairs`` is checked for finiteness where it stands and left as a None slot
    between "[" and "]", with (slot, array) appended to ``slots``."""
    if obj is None or isinstance(obj, (bool, str)):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            parts.append(f"{', ' if i else ''}{json.dumps(str(k))}: ")
            _encode(v, parts, slots)
        parts.append("}")
    elif isinstance(obj, _Pairs):
        if not (finite := np.isfinite(obj.a)).all():
            _fmt_float(obj.a.item(int(np.argmin(finite))))  # raises, naming the first one
        slots.append((len(parts) + 1, obj.a))
        parts += ["[", None, "]"]
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(", ")
            _encode(v, parts, slots)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj) -> str:
    """Deterministic JSON text of ``obj``: one walk into a list of parts, each run of
    matrices printed with one call (``_print_run``), and one join."""
    parts, slots = [], []
    _encode(obj, parts, slots)
    for run in _runs(slots, lambda slot: len(slot[1])):
        for (at, _), text in zip(run, _print_run([a for _, a in run])):
            parts[at] = text
    parts.append("\n")
    return "".join(parts)


@_writer
def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:  # the schema holds one "dim"
        raise DimensionMismatchError(f"cannot write a matrix of shape {a.shape}: not square")
    return {"dim": int(a.shape[0]),
            "entries": _Pairs(np.ascontiguousarray(a).view(float).reshape(-1, 2))}


def _complex_entries(entries, dim: int):
    """The flat complex array of the JSON list ``entries``, None if an int in it is
    beyond float range."""
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise MalformedInputError(f'"entries" must hold exactly {dim * dim} pairs')
    reals = list(chain(*entries)) if _is_pair_list(entries) else None
    if reals is None or not set(map(type, reals)) <= {float, int}:  # name the first bad entry
        for i, pair in enumerate(entries):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
            ):
                raise MalformedInputError(f"entry {i} is not a [re, im] pair of reals")
        reals = list(chain(*entries))
    with suppress(OverflowError):  # an int beyond float range, as non-finite as 1e400
        return np.array(reals, dtype=float).view(complex)
    return None


def matrix_from_json(obj) -> np.ndarray:
    dim, entries = _object(obj, _MATRIX)["dim"], obj["entries"]
    if type(dim) is not int or dim < 1:  # a JSON true is no dimension
        raise MalformedInputError(f'"dim" must be a positive integer, got {dim!r}')
    if isinstance(entries, _Pairs) and len(entries.a) == dim * dim:  # the reader's array
        flat, entries.a = entries.a.view(complex), None  # taken: _read checks each was
    else:
        flat = _complex_entries(entries, dim)
    if flat is None or not np.all(np.isfinite(flat)):
        raise MalformedInputError("matrix entries must be finite")
    return flat.reshape(dim, dim)


def distribution_to_json(p: ProbabilityDistribution) -> dict:
    return {"outcomes": list(p.outcomes), "probs": [float(x) for x in p.probs]}


@_guard("distribution")
def distribution_from_json(obj) -> ProbabilityDistribution:
    _object(obj, _DISTRIBUTION)
    return ProbabilityDistribution(tuple(_field(obj, "outcomes", None, list)),
                                   _field(obj, "probs", None, list))


@_guard("conditional table")
def conditional_from_json(obj) -> ConditionalDistribution:
    _object(obj, _CONDITIONAL)
    given, out = (_field(obj, key, None, list) for key in ("given_outcomes", "out_outcomes"))
    sorted(out)  # suffstat writes its classes sorted
    return ConditionalDistribution(tuple(given), tuple(out), obj["table"])


@_writer
def hybrid_to_json(h: HybridState) -> dict:
    return {
        "classical_dims": list(h.classical_dims),
        "outcomes": [list(k) for k in sorted(h.blocks)],
        "blocks": {
            ",".join(map(str, k)): matrix_to_json.tree(b) for k, b in sorted(h.blocks.items())
        },
        "normalized": h.normalized,
    }


@_guard("hybrid state")
def hybrid_from_json(obj) -> HybridState:
    if not isinstance(blocks := _object(obj, _HYBRID)["blocks"], dict):
        raise TypeError(f'"blocks" is a {type(blocks).__name__}, not an object')
    for key in blocks:  # ASCII digits, as hybrid_to_json writes them: "0,1"
        if not (isinstance(key, str) and all(s.isascii() and s.isdigit() for s in key.split(","))):
            raise MalformedInputError(f"block key {key!r} is not comma-separated ASCII digits")
    blocks = {tuple(map(int, key.split(","))): matrix_from_json(b) for key, b in blocks.items()}
    # compared as text, where true is not 1
    if "outcomes" in obj and json.dumps(obj["outcomes"]) != json.dumps(sorted(map(list, blocks))):
        raise MalformedInputError('"outcomes" must list the block keys, sorted')
    return HybridState(tuple(_field(obj, "classical_dims", None, list)), blocks,
                       normalized=_field(obj, "normalized", True, bool))


def verdict_to_json(v: CompatibilityVerdict) -> dict:
    out = {"compatible": v.compatible, "intersection_rank": v.intersection_rank(),
           "diagnostics": v.diagnostics}
    if not isinstance(v.intersection, Subspace):  # a classical verdict names its outcomes
        out["shared_outcomes"] = list(v.intersection)
    return out


@_writer
def pooling_report_to_json(r: PoolingReport) -> dict:
    classical = isinstance(r.pooled, ProbabilityDistribution)
    out = {
        "pooled": distribution_to_json(r.pooled) if classical else matrix_to_json.tree(r.pooled),
        "normalization_c": float(r.normalization_c),
        "hermiticity_residual": float(r.hermiticity_residual),
        "min_eigenvalue": float(r.min_eigenvalue),
        "precondition_checked": r.precondition_checked,
    }
    if r.precondition_residual is not None:
        out["precondition_residual"] = float(r.precondition_residual)
    return out


# Step type -> (its exact class, (JSON field, attribute) pairs in constructor order).
# The class checks every value; a field in _CODECS goes through its (encoder of the
# attribute, decoder of the field in the step object).
_STEPS = {
    "unitary": (UnitaryDynamics, (("matrix", "u"),)),
    "channel": (KrausChannel, (("kraus", "kraus_ops"),)),
    "depolarizing": (DepolarizingChannel, (("dim", "dim"), ("strength", "strength"))),
    "dephasing": (DephasingChannel, (("dim", "dim"), ("strength", "strength"))),
    "replacement": (ReplacementChannel, (("dim", "dim"), ("target", "target"))),
}
_CODECS = {
    "matrix": (matrix_to_json.tree, lambda obj, f: matrix_from_json(obj[f])),
    "kraus": (lambda ops: list(map(matrix_to_json.tree, ops)),
              lambda obj, f: tuple(map(matrix_from_json, _field(obj, f, None, list)))),
}
_AS_IS = (lambda v: v, lambda obj, f: obj[f])
_STEP_NAMES = {cls: name for name, (cls, _) in _STEPS.items()}
_STEP_KEYS = {name: _keys(f"{name} step", ("type", *(f for f, _ in fields)))
              for name, (_, fields) in _STEPS.items()}


def _step_to_json(step) -> dict:
    if (name := _STEP_NAMES.get(type(step))) is None:
        raise InvalidParameterError(f"a {type(step).__name__} step has no JSON form")
    return {"type": name, **{f: _CODECS.get(f, _AS_IS)[0](getattr(step, attr))
                             for f, attr in _STEPS[name][1]}}


def _step_from_json(obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise MalformedInputError('pipeline step needs a "type" field')
    if not isinstance(name := obj["type"], str) or name not in _STEPS:  # a list does not hash
        raise MalformedInputError(f"unknown step type {name!r}")
    cls, fields = _STEPS[name]
    _object(obj, _STEP_KEYS[name])
    return cls(*(_CODECS.get(f, _AS_IS)[1](obj, f) for f, _ in fields))


@_writer
def scenario_config_to_json(cfg: ScenarioConfig) -> dict:
    out = {
        "prior": matrix_to_json.tree(cfg.prior),
        "pipelines": [{"name": p.name, "steps": list(map(_step_to_json, p.steps))}
                      for p in cfg.pipelines],
        "rank_tol": cfg.tol.rank_tol,
        "herm_tol": cfg.tol.herm_tol,
        "seed": int(cfg.seed),  # a NumPy integer is not JSON
        "pool_against_evolved": cfg.evolved_by is not None,
    }
    if cfg.evolved_by is not None:
        out["evolved_by"] = matrix_to_json.tree(cfg.evolved_by.u)
    return out


@_guard("scenario config")
def scenario_config_from_json(obj) -> ScenarioConfig:
    pipelines = []
    for p in _field(_object(obj, _CONFIG), "pipelines", None, list):
        name = _field(_object(p, _PIPELINE), "name", None, str)
        steps = _field(p, "steps", None, list)
        pipelines.append(AgentPipeline(name, tuple(map(_step_from_json, steps))))
    evolved = obj.get("evolved_by")  # an absent key or null is no evolved_by
    if _field(obj, "pool_against_evolved", False, bool) != (evolved is not None):
        raise MalformedInputError('"pool_against_evolved" must be true iff "evolved_by" is set')
    return ScenarioConfig(
        prior=matrix_from_json(obj["prior"]),
        pipelines=pipelines,
        tol=Tolerances(**{k: obj[k] for k in ("rank_tol", "herm_tol") if k in obj}),
        seed=obj.get("seed", 0),
        evolved_by=None if evolved is None else UnitaryDynamics(matrix_from_json(evolved)),
    )


@_writer
def scenario_result_to_json(res: ScenarioResult) -> dict:
    return {
        "sigma1": matrix_to_json.tree(res.sigma1),
        "sigma2": matrix_to_json.tree(res.sigma2),
        **verdict_to_json(res.verdict),
        "pooling": pooling_report_to_json.tree(res.pooling) if res.pooling else None,
        "pooling_error": res.pooling_error,
    }
