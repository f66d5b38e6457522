"""Hypothesis fuzz of `cli.run`: no exception escapes, exit code in {0, 1, 2}.

Arguments are drawn from the six subcommands with bounded sizes, and
well-formed argv is mixed with malformed tokens.  The run happens in a
scratch working directory, since a fuzzed `--out` may name any relative
path.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodrule.cli import run
from prodrule.seqengine import FamilyId

FAMILIES = [fam.value for fam in FamilyId]

MALFORMED = [
    "", "-", "--", "abc", "-1", "0", "1/0", "3/-4", "1/2/3", "2,", ",3", "3;5",
    "3,3;", "1,5", "3,3,3", "x,y", "9" * 5000, "--format", "xml", "--max",
    "--family", "--probes", "--pairs", "--range", "--c", "--n", "--out",
    "missing/dir/out.json", ".", "out.json", "all", "-h", "verify", "classify",
    "é", "\x00",
]

formats = st.sampled_from([[], ["--format", "json"], ["--format", "text"]])
rationals = st.one_of(
    st.integers(-50, 50).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(-3, 12)),
)


@st.composite
def pair_lists(draw, max_prod):
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(0, 20))
        n = draw(st.integers(0, max(0, max_prod // max(m, 1))))
        pairs.append(f"{m},{n}")
    return ";".join(pairs)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


well_formed = st.one_of(
    st.builds(lambda f: ["derive-d", *f], formats),
    st.builds(
        lambda fam, n, f: ["verify", "--family", fam, "--max", str(n), *f],
        st.sampled_from([*FAMILIES, "all"]), st.integers(-1, 60), formats,
    ),
    st.builds(
        lambda fam, n, f: ["table", "--family", fam, "--max", str(n), *f],
        st.sampled_from(FAMILIES), st.integers(-1, 200), formats,
    ),
    st.builds(
        lambda c, n, f: ["eval", "--c", c, "--n", str(n), *f],
        rationals, st.integers(-1, 2000), formats,
    ),
    st.builds(
        lambda probes, rng, f: ["classify", *probes, *rng, *f],
        _opt("--probes", pair_lists(300)),
        _opt("--range", st.integers(-1, 300).map(str)),
        formats,
    ),
    st.builds(
        lambda pairs, f: ["constraints", *pairs, *f],
        _opt("--pairs", pair_lists(300)),
        formats,
    ),
)


@st.composite
def argvs(draw):
    argv = draw(well_formed)
    for _ in range(draw(st.integers(0, 2))):
        token = draw(st.one_of(st.sampled_from(MALFORMED), st.text(max_size=6)))
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()) and at < len(argv):
            argv[at] = token
        else:
            argv.insert(at, token)
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(["out.json", "missing/out.json", ".", "", "a\x00b"]))]
    return argv


@pytest.fixture(scope="module")
def scratch_cwd(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("cli_fuzz"))
        yield


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_cli_run_never_raises(scratch_cwd, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
