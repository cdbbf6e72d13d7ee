"""Fuzz the representation JSON reader, ``pirep classify --rep`` and the
weights file of ``pirep shift``.

Inputs are JSON trees with a wrong type or shape at any key: either a
valid small representation with one value replaced or one key removed, or
a tree whose every key holds a well-typed value or an arbitrary JSON
value.  Sizes stay small (block sizes, module dimensions and
multiplicities at most 3, generated lists at most 4 long), so no input
allocates more than a few kilobytes.  The only allowed outcomes are a
representation, or a ``PirepError`` that the CLI turns into exit 2.
Weights files map ``"i,m"`` keys, well-formed or not, to arbitrary JSON
values on shifts with M <= 20; ``pirep shift`` must exit 0 or 2.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from pirep import harness as hz
from pirep import serialize as sz
from pirep.cli import main
from pirep.correspondence import SCALARS, StarRepresentation, diagonal_correspondence, scalar_correspondence
from pirep.covrep import CovariantRep
from pirep.errors import PirepError
from pirep.numerics import DEFAULT_TOL

SIZE = st.integers(-1, 3)
NUMBER = st.integers(-3, 3) | st.floats(-3.5, 3.5) | st.sampled_from([math.nan, math.inf, -math.inf])
ANY_JSON = st.recursive(
    st.none() | st.booleans() | NUMBER | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def typed_or_any(valid):
    return valid | ANY_JSON


def small_lists(element):
    return st.lists(element, max_size=4)


ENTRY = typed_or_any(st.tuples(st.floats(allow_nan=False, allow_infinity=False) | NUMBER, NUMBER).map(list))
MATRIX = typed_or_any(
    st.fixed_dictionaries(
        {"rows": typed_or_any(SIZE), "cols": typed_or_any(SIZE), "data": typed_or_any(small_lists(ENTRY))}
    )
)
TYPED_REP = st.fixed_dictionaries(
    {
        "correspondence": typed_or_any(
            st.fixed_dictionaries(
                {
                    "block_sizes": typed_or_any(small_lists(SIZE)),
                    "module_dim": typed_or_any(SIZE),
                    "gram": typed_or_any(small_lists(small_lists(MATRIX))),
                    "left_action": typed_or_any(small_lists(MATRIX)),
                    "right_action": typed_or_any(small_lists(MATRIX)),
                }
            )
        ),
        "multiplicities": typed_or_any(small_lists(SIZE)),
        "V": typed_or_any(small_lists(MATRIX)),
    }
)


@st.composite
def valid_rep_json(draw):
    """A random contractive representation whose matrices have at most
    four entries."""
    if draw(st.booleans()):
        corr = scalar_correspondence(draw(st.integers(1, 3)))
        sigma = StarRepresentation(SCALARS, [draw(st.integers(0, 2))])
    else:
        n = draw(st.integers(1, 2))
        tags = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        corr = diagonal_correspondence(hz.TWO_BLOCK, draw(tags), draw(tags))
        sigma = StarRepresentation(hz.TWO_BLOCK, draw(st.sampled_from([(1, 0), (0, 1), (1, 1)])))
    rng = hz.rng_stream(draw(st.integers(0, 2**16)), 0)
    rep = hz.random_contractive_rep(corr, sigma, rng, DEFAULT_TOL)
    return json.loads(sz.dumps(sz.rep_to_json(rep)))


def _paths(tree, prefix=()):
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_rep_json(draw):
    """A valid representation with one value replaced or one key removed."""
    tree = draw(valid_rep_json())
    path = draw(st.sampled_from(list(_paths(tree))))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(ANY_JSON)
    return tree


REP_TREES = mutated_rep_json() | TYPED_REP


@pytest.fixture(scope="module")
def rep_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "rep.json"


@FUZZ
@given(tree=REP_TREES)
def test_rep_from_json_returns_a_rep_or_a_pirep_error(tree):
    try:
        rep = sz.rep_from_json(tree, DEFAULT_TOL)
    except PirepError:
        return
    assert isinstance(rep, CovariantRep)


@FUZZ
@given(tree=REP_TREES)
def test_classify_exits_0_or_2(rep_path, tree):
    rep_path.write_text(json.dumps(tree))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "--rep", str(rep_path)])
    if code == 0:
        assert "is_partial_isometric" in json.loads(out.getvalue())
    else:
        assert code == 2
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


@FUZZ
@given(tree=valid_rep_json())
def test_valid_trees_load(tree):
    assert isinstance(sz.rep_from_json(tree, DEFAULT_TOL), CovariantRep)



WEIGHT_KEY = st.builds("{},{}".format, st.integers(-1, 4), st.integers(-1, 22)) | st.text(max_size=4)
WEIGHT_VALUE = NUMBER | st.sampled_from([1e308, 10**400, "nan", "1e999"]) | ANY_JSON
WEIGHTS = st.dictionaries(WEIGHT_KEY, WEIGHT_VALUE, max_size=4) | ANY_JSON


@FUZZ
@given(weights=WEIGHTS, n=st.integers(1, 3), trunc=st.integers(1, 20))
def test_shift_weights_exit_0_or_2(rep_path, weights, n, trunc):
    rep_path.write_text(json.dumps(weights))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["shift", "--n", str(n), "--M", str(trunc), "--weights", str(rep_path)])
    if code == 0:
        assert "criterion" in json.loads(out.getvalue())
    else:
        assert code == 2
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
