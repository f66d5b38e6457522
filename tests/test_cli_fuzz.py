"""Hypothesis fuzz of `cli.run` and of its option parser.

`run` lets no exception escape, exits 0, 1 or 2, and refuses with one
`error:` line.  Arguments are drawn from the six subcommands with bounded
sizes, and well-formed argv is mixed with malformed tokens.  The run
happens in a scratch working directory, since a fuzzed `--out` may name
any relative path.  `cli.parse_args` reads the same argv, with prefixes,
`=` forms, repeated options and help tokens mixed in, as the former
argparse parser in `cli_reference` does.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import cli_reference
from prodrule.cli import MAX_CAP, UsageError, _Help, parse_args, run
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
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())


REFERENCE = cli_reference.build_parser()
# the reference is argparse as it read argv up to Python 3.11; from 3.12 on, argparse
# treats `--opt=--` and `-h=h` otherwise, so the comparison runs only where it was written
reference_argparse = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="the reference reads argv as argparse did up to Python 3.11")


def _max_texts(argv):
    """Each text given to --max, or to a prefix of it, in argv."""
    for i, token in enumerate(argv):
        head, eq, value = token.partition("=")
        if len(head) > 2 and "--max".startswith(head):
            yield value if eq else "".join(argv[i + 1:i + 2])


def _past_the_cap(argv):
    for text in _max_texts(argv):
        with contextlib.suppress(ValueError):
            if int(text) > MAX_CAP:
                return True
    return False


# differences from the reference that are intended: for each, its reason, the argv it
# may touch, which the comparison skips, and an argv that shows it with its outcome here
# and in the reference
INTENDED_DIFFERENCES = {
    "cap-before-help": ("the --max cap is checked when --max is read, as every converter's check is, so it "
     "refuses before a later -h; the reference left the cap to `run`, after parsing",
     _past_the_cap, "verify --family zero --max 1000001 -h", "refused", "help"),
    "cap-before-repeat": ("for the same reason, a --max past the cap is refused although a later --max "
     "replaces it; the reference kept the last value and `run` checked only that",
     _past_the_cap, "verify --family zero --max 2000000 --max 5", "refused", "accepted"),
    "equals-dashes": ("the reference gives an option written --opt=-- an empty list, unconverted and unchecked, "
     "which `run` then compared with the cap and raised on; here -- is converted like any value",
     lambda argv: any(token.startswith("--") and token.partition("=")[2] == "--" for token in argv),
     "verify --family zero --max=-- -h", "refused", "help"),
    "joined-h-is-help": ("only -h, --help and prefixes of --help ask for help; the reference read -hh and "
     "-h=h as -h and more short options, and refused -hx at once even before a later -h",
     lambda argv: any(token.startswith("-h") and token != "-h" for token in argv),
     "verify --family zero --max 3 -hh", "refused", "help"),
    "joined-h-before-help": ("text joined to -h is an unknown option here, refused only after a later -h "
     "has asked for help, as any unknown option is",
     lambda argv: any(token.startswith("-h") and token != "-h" for token in argv),
     "verify -hx -h", "help", "refused"),
}
# each help token after `verify`, and what it means there
HELP_TOKENS = {"-h": "help", "--help": "help", "--he": "help", "--h": "help", "-hh": "refused",
               "-h=h": "refused", "-h=": "refused", "-hx": "refused", "--help=": "refused",
               "--h=x": "refused"}


@st.composite
def parser_argvs(draw):
    """`argvs()` with option prefixes, `=` forms, repeated options and help tokens mixed in."""
    argv = draw(argvs())
    for _ in range(draw(st.integers(0, 3))):
        options = [i for i, token in enumerate(argv) if token.startswith("--") and len(token) > 2]
        edit = draw(st.sampled_from(["prefix", "equals", "repeat", "help"] if options else ["help"]))
        if edit == "help":
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(sorted(HELP_TOKENS))))
            continue
        i = draw(st.sampled_from(options))
        if edit == "prefix":
            argv[i] = argv[i][:draw(st.integers(2, len(argv[i])))]
        elif i + 1 < len(argv) and edit == "equals":
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif edit == "repeat":   # the option again, with any token of the argv or a malformed one
            argv += [argv[i], draw(st.sampled_from([*argv, *MALFORMED]))]
    return argv


def _reference_outcome(argv):
    """The reference's reading of argv: its values, "refused" or "help"."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = REFERENCE.parse_args(argv)
        except SystemExit as exc:
            return "help" if exc.code == 0 else "refused"
    return "refused" if getattr(args, "max", 0) > MAX_CAP else vars(args)   # the cap as `run` read it


def _outcome(argv):
    try:
        return vars(parse_args(argv))
    except _Help:
        return "help"
    except UsageError:
        return "refused"


@reference_argparse
@settings(max_examples=400, deadline=None)
@given(argv=parser_argvs())
@example(argv=["verify", "--fam", "zero", "--ma=3", "--max", "4", "--format=json"])
@example(argv=["verify", "--f", "zero", "--max", "4"])
@example(argv=["verify", "--family", "zero", "--max", "3", "--format", "xml"])
@example(argv=["table", "--family", "zero"])
@example(argv=["eval", "--c", "-7/5", "--n", "3"])
@example(argv=["eval", "--c=-7/5", "--n", "-1", "-h"])
@example(argv=["eval", "-h", "--c", "-7/5", "--f"])
@example(argv=["--bogus", "derive-d", "--he"])
@example(argv=["table", "--family", "zero", "--max", "3", "--", "-h"])
def test_the_table_parser_reads_argv_as_the_reference_does(argv):
    assume(not any(touches(argv) for _, touches, *_ in INTENDED_DIFFERENCES.values()))
    assert _outcome(argv) == _reference_outcome(argv), argv


def _kind(outcome):
    return outcome if isinstance(outcome, str) else "accepted"


@pytest.mark.parametrize("name", INTENDED_DIFFERENCES)
def test_each_intended_difference_holds(name):
    reason, touches, case, here, _ = INTENDED_DIFFERENCES[name]
    argv = case.split()
    assert touches(argv)
    assert _kind(_outcome(argv)) == here, reason


@reference_argparse
@pytest.mark.parametrize("name", INTENDED_DIFFERENCES)
def test_each_intended_difference_is_one_from_the_reference(name):
    reason, _, case, here, there = INTENDED_DIFFERENCES[name]
    assert _kind(_reference_outcome(case.split())) == there != here, reason


@pytest.mark.parametrize("token", HELP_TOKENS)
def test_help_tokens_read_as_stated(token):
    assert _kind(_outcome(["verify", token])) == HELP_TOKENS[token]
