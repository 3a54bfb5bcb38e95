import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from enum import IntEnum

import pytest

import palfact.analysis
import palfact.cli
from palfact import Periodic, Word, build_profile, classify_bound2, search_prefix_floor
from palfact.cli import _json_doc, main
from palfact.greedy import running_max
from palfact.streams import parse_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_len_text(capsys):
    code, out, _ = run_cli(capsys, "len", "lit:abaab")
    assert code == 0
    assert out == "pal=2 lgpal=3 rgpal=2\n"


def test_len_json(capsys):
    code, out, _ = run_cli(capsys, "len", "lit:abaab", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert (doc["pal"], doc["lgpal"], doc["rgpal"]) == (2, 3, 2)


def test_len_rejects_streams(capsys):
    code, _, err = run_cli(capsys, "len", "periodic:ab")
    assert code == 2
    assert "stream" in err


def test_bad_spec_names_token(capsys):
    code, _, err = run_cli(capsys, "len", "bogus:xyz")
    assert code == 2
    assert "bogus:xyz" in err


def test_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "lit:aabaab", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"]["pal"] == 2
    assert doc["minimal"]["decompositions"] == [[[1, 2], [3, 6]], [[1, 5], [6, 6]]]
    assert doc["minimal"]["truncated"] is False


def test_decompose_text_uses_input_notation(capsys):
    code, out, _ = run_cli(capsys, "decompose", "lit:aabaab")
    assert code == 0
    assert "aa . baab" in out and "aabaa . b" in out
    code, out, _ = run_cli(capsys, "decompose", "lit:121312")
    assert code == 0
    assert "1 . 21312" in out
    assert "121 . 3 . 1 . 2" in out  # left greedy, digit notation


def test_profile_csv_first_attainment_row(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "fib", "--horizon", "6000", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,pal,lgpal,rgpal,max_pal,max_lgpal,max_rgpal"
    assert lines[-1] == "m,1,2,9,62,297,1154,5473"
    assert len(lines) == 6002


def test_profile_accepts_finite_words(capsys):
    code, out, _ = run_cli(capsys, "profile", "lit:abaab", "--horizon", "100",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7  # header, 5 rows, m-row


def test_bounds_text(capsys):
    code, out, _ = run_cli(capsys, "bounds", "periodic:ababa",
                           "--horizon", "1000")
    assert code == 0
    assert "prefix_max=2" in out
    assert "factor_max=3" in out
    assert "((ab)^i a)^w" in out


def test_next_command(capsys):
    code, out, _ = run_cli(capsys, "next", "lit:ab", "--max-len", "8")
    assert code == 0
    assert "aba" in out and "abba" in out


def test_next_runs_deep_unary_tails(capsys):
    # the members are aa and ab^n a, so the search walks the spine ab^n to
    # the cap, one symbol deeper at each step
    code, out, _ = run_cli(capsys, "next", "lit:a", "--max-len", "800",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["palindromes"] == ["aa"] + ["a" + "b" * n + "a" for n in range(1, 799)]
    assert doc["open_branches"] == ["a" + "b" * 799]
    start = time.perf_counter()
    code, _, _ = run_cli(capsys, "next", "lit:a", "--max-len", "2000")
    assert code == 0
    assert time.perf_counter() - start < 2


def test_searches_do_not_recurse_per_symbol(capsys):
    depth = len(inspect.stack())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        code, out, _ = run_cli(capsys, "next", "lit:a", "--max-len", "1500")
        floor = search_prefix_floor(3, 12)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0 and out.count("\n") == 1503
    assert floor == 3


def test_bounds_builds_one_report_labelled_with_the_source(capsys, monkeypatch):
    calls = []
    original = palfact.analysis.bound_report

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(palfact.analysis, "bound_report", counting)
    monkeypatch.setattr(palfact.cli, "bound_report", counting)
    code, out, _ = run_cli(capsys, "bounds", "periodic:ab", "--horizon", "300",
                           "--format", "json")
    assert code == 0
    assert len(calls) == 1
    doc = json.loads(out)
    assert doc["classification"]["family"] == "(a^i b^j)^w"
    assert doc["classification"]["report"] == doc["report"]
    assert doc["report"]["word"] == "periodic:ab"


def test_classification_report_names_the_stream():
    cls = classify_bound2(Periodic(Word("ab")), 300)
    assert cls.report.word_spec == "periodic:ab"
    assert cls.to_json()["report"]["word"] == "periodic:ab"


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "occdiff")
    assert code == 0
    assert "[OK] suite occdiff" in out
    assert "[FAIL]" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "evperiodic", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["name"] == "evperiodic"
    assert doc["results"][0]["ok"] is True


def test_experiments_json(capsys):
    code, out, _ = run_cli(capsys, "experiments", "occdiff", "multibonacci",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["results"]]
    assert names == ["multibonacci", "occdiff"]  # canonical sorted order
    assert all(r["ok"] for r in doc["results"])


def test_experiments_text_with_json_out(tmp_path, capsys):
    target = tmp_path / "exp.json"
    code, out, _ = run_cli(capsys, "experiments", "occdiff",
                           "--out", str(target))
    assert code == 0
    assert "occdiff: ok" in out
    doc = json.loads(target.read_text())
    assert doc["results"][0]["name"] == "occdiff"


@pytest.mark.parametrize("command", ["verify", "experiments"])
def test_jobs_option_is_gone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "all", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_experiments_rejects_unknown(capsys):
    code, _, err = run_cli(capsys, "experiments", "oracles")
    assert code == 2
    assert "oracles" in err


@pytest.mark.parametrize("suites", [("all", "greedy"), ("lps", "all"), ("all", "all")])
def test_verify_all_beside_suite_names_means_every_suite(capsys, suites):
    # this used to exit 2 with "unknown suite names: all"
    code, out, _ = run_cli(capsys, "verify", *suites, "--format", "json")
    assert code == 0
    assert sha(out) == dict(GOLDEN_DIGESTS)[("verify", "all", "--format", "json")]


def test_experiments_all_beside_names_means_every_experiment(capsys):
    # this used to exit 2 with "unknown experiments: all"
    code, out, err = run_cli(capsys, "experiments", "all", "occdiff")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "experiments", "all")[1]


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "oracles", "--seed", "3",
                         "--format", "json")
    _, out2, _ = run_cli(capsys, "verify", "oracles", "--seed", "3",
                         "--format", "json")
    assert out1 == out2  # byte-identical without --timings
    _, out3, _ = run_cli(capsys, "verify", "oracles", "--seed", "3",
                         "--format", "json", "--timings")
    assert "runtime_seconds" in out3 and "runtime_seconds" not in out1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "profile", "fib", "--horizon", "50",
                           "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,pal,")


@pytest.mark.parametrize("argv", [
    ("len", "lit:ab"),
    ("decompose", "lit:abab"),
    ("profile", "fib", "--horizon", "20"),
    ("bounds", "periodic:ab", "--horizon", "50", "--window", "10"),
    ("next", "lit:ab", "--max-len", "8"),
    ("verify", "lps"),
    ("experiments", "occdiff"),
    ("experiments", "occdiff", "--format", "json"),
])
@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    # this used to print a traceback and exit 1, the failed-claim code
    target = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    reason = "Is a directory" if where == "directory" else "No such file or directory"
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: {reason}\n"


def test_cap_override(capsys):
    code, _, err = run_cli(capsys, "profile", "fib", "--horizon", "200",
                           "--cap", "100")
    assert code == 2
    assert "cap" in err.lower()


@pytest.mark.parametrize("command", ["verify", "experiments"])
def test_cap_is_offered_only_where_a_word_is_read(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "occdiff", "--cap", "3"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("profile", "morphism:a>ab,b>@a", "--horizon", "5"),
    ("bounds", "morphism:a>ab,b>@a", "--horizon", "5", "--window", "2"),
])
def test_finite_fixed_point_is_a_usage_error(capsys, argv):
    # this used to print an IndexError traceback and exit 1
    assert run_cli(capsys, *argv) == (
        2, "", "error: the fixed point of morphism:a>ab,b>@a is finite: "
               "it has 2 symbols\n")


@pytest.mark.parametrize("spec", ["periodic:bc", "evper:b|bc", "morphism:a>ab,b>ba@a",
                                  "fib", "U", "mbstream", "uladderper:2"])
def test_profile_labels_the_spec_as_given(capsys, spec):
    # symbols b, c used to print as digits: periodic:12, evper:1|12
    code, out, _ = run_cli(capsys, "profile", f" {spec} ", "--horizon", "20",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["word"] == spec


# SHA-256 of `profile <spec> --horizon 3000 --format <fmt>` as first released;
# the per-prefix arrays and their layout must not change with the algorithms.
PROFILE_DIGESTS = {
    ("fib", "json"): "a38301efc2c4cef5ff2b329d7bedbd21e340dc1f3be92acfbab044860d911ab0",
    ("fib", "csv"): "65a56dea87c317ae8cdd608a5ea76c6b89cbf7ab53db7314fcfef248983a69b5",
    ("U", "json"): "0f4f5675e582581bb47e68fb0ec8482b19c103502f47b99327cf842816f42fd8",
    ("U", "csv"): "d84e2ad1bd9b709b464b6725c7207a475380413cbc8cafab6d444b878cd83e88",
    ("mbstream", "json"): "9a9e5e3922da98e515c82c218f4061062f020119065300882b7de4648f318152",
    ("mbstream", "csv"): "9d91fbced07b34477a8746a509bb871ef847d7b5582caa3007d140d681368e11",
    ("periodic:aabab", "json"): "ade1bef67b69f5b144aabf5c83f377940d898f60b5947298341bdfd70e421a9a",
    ("periodic:aabab", "csv"): "48b5ef7e231fb18edf28504a42a7728fd590af533cf0a8d9c5dde676d19b6856",
}


@pytest.mark.parametrize("spec,fmt", sorted(PROFILE_DIGESTS))
def test_profile_output_is_pinned(capsys, spec, fmt):
    code, out, _ = run_cli(capsys, "profile", spec, "--horizon", "3000",
                           "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PROFILE_DIGESTS[(spec, fmt)]


def test_profile_labels_ladder_stream(capsys):
    code, out, _ = run_cli(capsys, "profile", "uladderper:2", "--horizon", "50",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["word"] == "uladderper:2"


def seeded_word(seed, letters, n):
    rng = random.Random(seed)
    return "lit:" + "".join(rng.choice("abcd"[:letters]) for _ in range(n))


WORD3 = seeded_word(3, 3, 1000)
WORD4 = seeded_word(4, 4, 1500)

# SHA-256 of each command's stdout, recorded before the JSON writer and the
# minimal-factorization search were rewritten; output must stay byte-identical.
GOLDEN_DIGESTS = [
    (("decompose", "lit:aabaab", "--format", "json"),
     "ba48e26ca9068273eaf7a679a11ce0d3aef59d256f316f4814d94ba5b210de1a"),
    (("decompose", "lit:aabaab", "--format", "text"),
     "7ec1ea147040c0ca569d0de070aed24124765832a19638ea96bb49cc0f0487cd"),
    (("decompose", WORD3, "--format", "json"),
     "bd0bf34cb7590466471c47ec732a486bb57f8785ae743839dbcfb65102fec664"),
    (("decompose", WORD3, "--format", "text"),
     "906de882c750bdfd0d50fe43323ef2086c894cae27e33041a4a4636d545ccbea"),
    (("decompose", WORD4, "--format", "json"),
     "2f0a83cd3b7a55eee762d2e2fe64c9cb6be60865e322942d8dc1607ddd0211cd"),
    (("decompose", WORD4, "--format", "text"),
     "0e237829a0b08e6ecca9500a4c63533e54b5182879954763dc33e75b8bad7fd7"),
    (("len", "multibonacci:9", "--format", "json"),
     "88223045ae19073514af3fd890aa3017b30698f03c2c3317816b1a90bd76b04b"),
    (("len", "uladder:5", "--format", "json"),
     "2a3bd698e9fe92dcd44888224b6015456aa2a7f3967466da98084b0d851d13cc"),
    (("bounds", "fib", "--horizon", "2000", "--window", "50", "--format", "json"),
     "af19c33b1599853358ddd31fea2a42701063a889a3c23dfe2d23f8660a84e843"),
    (("verify", "all", "--format", "json"),
     "7d097255827a1bb1d3fea60ca98d8b87668a1730007a8b33a151d44ce65190a7"),
    # recorded before the minimum-count oracle and the split test changed;
    # the random words of the oracles, lps and greedy suites follow the seed
    (("verify", "all", "--format", "json", "--seed", "3"),
     "2553c392cee9d73b1ed38145f7ff3938c69e837388fe4d3735e6dd2fb3c22ff8"),
    (("verify", "all", "--format", "json", "--seed", "7"),
     "edcb85521586c21f5e0c558fb08ed55bf4c064b6f010b70697ff3ffdc1d2b0ae"),
    # recorded before text rendering went from factor words to span texts;
    # digits and ints notation
    (("decompose", "multibonacci:5", "--format", "text"),
     "4e0153808cfebdcf79231412acf5f01bfa1ffc4cd91b7c066aa6ded7eea147db"),
    (("decompose", "uladder:6", "--format", "text"),
     "69a877e5e5a96e861113b4c86cadec702858b9e41ec93693c9b068bd59705598"),
    # recorded before the next-set search moved from recursion to a stack
    (("next", "lit:aab", "--max-len", "64", "--format", "json"),
     "ee4641cc205a67dca960af958753df84a4612ab1ad868e658e22bf62f7baaa7a"),
    (("next", "lit:aab", "--max-len", "64", "--format", "text"),
     "da4bbac6d0092136e1ab71a4cc92393b6d6ce5f3cceb0bcad0cf6b50a136412f"),
    (("next", "lit:ab", "--max-len", "128", "--format", "json"),
     "886176af79217b9aaafbe74f0a2c42a59d905b6ca8df5081974a3ff48164af4f"),
    (("next", "lit:ab", "--max-len", "128", "--format", "text"),
     "a6c54d3bf70f787dc100b2974268038854a6747a03d1cfdd7fb70e40cc7e65e7"),
    # recorded before the greedy decompositions came from the minimal
    # search's indices; the empty and one-span greedy renderings
    (("decompose", "lit:", "--format", "json"),
     "afc7f4ed9904a9bd9e284415d687f5cf8952dedecc426a7ff2fd6999c6e5ead6"),
    (("decompose", "lit:", "--format", "text"),
     "329ccef5df20d472f388bfe25fb419b56628f402f5d1826b0409767dfdf0c33b"),
    (("decompose", "lit:a", "--format", "json"),
     "a733e58a8cbdd16ea5167cb797556cea84799deffb1e1ee140d5bda27a66c6c4"),
    (("decompose", "lit:a", "--format", "text"),
     "214adda37275971077ddcb0847a21a269c876f00da59a4c48c1bbe7042042e3f"),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_DIGESTS,
    ids=[" ".join(a if len(a) < 20 else a[:12] + "..." for a in argv)
         for argv, _ in GOLDEN_DIGESTS])
def test_output_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,builds", [
    (("len", "lit:aabaabbab"), 2),
    (("decompose", "lit:aabaabbab"), 2),
    (("next", "lit:aab", "--max-len", "24"), 0),
    (("profile", "fib", "--horizon", "200"), 1),
])
def test_index_builds_per_command(capsys, index_builds, argv, builds):
    # decompose reads its greedy decompositions from the two indices of the
    # minimal search instead of indexing the word and its reversal again
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(index_builds) == builds


class Side(IntEnum):
    LEFT = 1
    RIGHT = 2


def random_json(rng, depth):
    """A random document mixing the shapes the writer renders itself with
    those it hands to ``json.dumps``."""
    text = "ab[],:\"\\ \n\té中😀"
    kind = rng.randrange(13 if depth else 6)
    if kind == 0:
        return rng.choice((0, -1, 7, 2**70, -(2**65)))
    if kind == 1:
        return rng.choice((True, False, None, Side.RIGHT))
    if kind == 2:
        return rng.choice((0.0, -1.5, 1e-7, 1e300, float("inf"), 0.1))
    if kind == 3:
        return "".join(rng.choice(text) for _ in range(rng.randrange(6)))
    if kind == 4:
        return rng.choice(([], {}, ()))
    if kind == 5:
        return [rng.randrange(-5, 50) for _ in range(rng.randrange(1, 6))]
    if kind == 6:  # int lists with a bool or an IntEnum member among them
        row = [rng.randrange(9) for _ in range(rng.randrange(1, 5))]
        row.insert(rng.randrange(len(row) + 1), rng.choice((True, False, Side.LEFT)))
        return row
    if kind == 7:  # equally long int rows, as lists or tuples
        k = rng.randrange(1, 4)
        make = rng.choice((list, tuple))
        return [make(rng.randrange(100) for _ in range(k))
                for _ in range(rng.randrange(1, 5))]
    if kind == 8:  # ragged or empty int rows
        return [[rng.randrange(9) for _ in range(rng.randrange(3))]
                for _ in range(rng.randrange(1, 5))]
    if kind == 9:
        return tuple(random_json(rng, depth - 1) for _ in range(rng.randrange(4)))
    if kind == 10:
        return [random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 11:  # non-str keys
        keys = (3, -1, Side.LEFT, True, None, 2.5, "k")
        return {rng.choice(keys): random_json(rng, depth - 1)
                for _ in range(rng.randrange(4))}
    return {"".join(rng.choice(text) for _ in range(rng.randrange(4))):
            random_json(rng, depth - 1) for _ in range(rng.randrange(5))}


def reused_rows_doc(rng):
    """A document whose lists share row objects, hold equal copies of them,
    and mix rows that are equal but differ in type."""
    pool = [(1, 1), (1, True), [1, 1], (Side.LEFT, 2), (1, 2), [1, 2], (2, 3, 4),
            (False,), (0,), [], (), (1.0, 1), (None, 1), [[1, 2]], ((1, 2),)]
    pool += [tuple(rng.randrange(9) for _ in range(rng.randrange(1, 4)))
             for _ in range(4)]

    def pick():
        row = rng.choice(pool)
        copy = rng.randrange(3)
        if copy == 1:  # an equal row, same container type, other object
            return type(row)(list(row))
        if copy == 2:  # the other container type
            return list(row) if type(row) is tuple else tuple(row)
        return row

    lists = [[pick() for _ in range(rng.randrange(1, 8))] for _ in range(4)]
    doc = {"a": lists[0], "b": {"c": lists[1], "d": [lists[2], lists[0]]},
           "e": tuple(lists[3]), "f": [{"g": lists[1]}, lists[2]]}
    return {k: doc[k] for k in rng.sample(sorted(doc), rng.randint(1, len(doc)))}


@pytest.mark.parametrize("doc", [
    {"a": [(1, 1), (1, True)]},
    {"a": [(1, True), (1, 1)]},
    {"a": [(1, 2), (Side.LEFT, 2)], "b": [(Side.LEFT, 2), (1, 2)]},
    {"a": [[1, 2], (1, 2)], "b": [(1, 2), [1, 2]]},
])
def test_json_writer_tells_equal_rows_of_other_types_apart(doc):
    assert "".join(_json_doc(doc)) == json.dumps({"schema_version": 1, **doc}, indent=2) + "\n"


def test_json_writer_renders_a_shared_row_at_every_depth():
    row = (1, 2)
    doc = {"a": [row, row], "b": [[row], {"c": [row, (1, True), row]}], "d": [row]}
    assert "".join(_json_doc(doc)) == json.dumps({"schema_version": 1, **doc}, indent=2) + "\n"


def test_json_writer_matches_json_dumps_with_reused_rows():
    rng = random.Random(12)
    for _ in range(1500):
        doc = reused_rows_doc(rng)
        expected = json.dumps({"schema_version": 1, **doc}, indent=2) + "\n"
        assert "".join(_json_doc(doc)) == expected


def test_json_writer_matches_json_dumps():
    rng = random.Random(11)
    for _ in range(2500):
        doc = {f"f{i}": random_json(rng, rng.randrange(4))
               for i in range(rng.randrange(5))}
        expected = json.dumps({"schema_version": 1, **doc}, indent=2) + "\n"
        assert "".join(_json_doc(doc)) == expected


SMALL_INTS_TOP = max(palfact.cli._SMALL_INTS)


@pytest.mark.parametrize("values", [
    [0],
    [3, 0, 7],
    [SMALL_INTS_TOP, SMALL_INTS_TOP + 1],
    [SMALL_INTS_TOP + 1, 1],
    [1, 10**18],
    [2, -1, 0],
    [1, Side.RIGHT],
    [Side.LEFT],
    [True, False],
    [],
], ids=["zero", "small", "table-edge", "past-table-first", "huge", "negative",
        "int-enum", "int-enum-only", "bools", "empty"])
def test_json_writer_renders_int_lists_like_json_dumps(values):
    # int lists render from a table of small ints; anything else must fall
    # back without changing a byte
    for obj in (values, {"a": values, "b": [values, values]}):
        out = []
        palfact.cli._dump(obj, "", {}, out)
        assert "".join(out) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("spec,horizon", [("fib", 0), ("lit:", 5), ("fib", 300),
                                          ("lit:abaababba", 9), ("U", 200)])
def test_profile_maxima_are_running_maxima(spec, horizon):
    prof = build_profile(parse_spec(spec, None), horizon)
    assert prof.horizon == len(prof.pal) == len(prof.lgpal) == len(prof.rgpal)
    for counts, maxima in ((prof.pal, prof.max_pal), (prof.lgpal, prof.max_lgpal),
                           (prof.rgpal, prof.max_rgpal)):
        assert maxima == running_max(counts)
        assert len(maxima) == prof.horizon
    doc = prof.to_json()
    assert (doc["max_pal"], doc["max_lgpal"], doc["max_rgpal"]) == tuple(
        m[-1] if m else 0 for m in (prof.max_pal, prof.max_lgpal, prof.max_rgpal))


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_decompose_long_word_needs_no_recursion(capsys, fmt):
    # 6000 random letters over a..d need 2653 palindromes; the search used to
    # recurse once per factor and died with RecursionError
    spec = seeded_word(5, 4, 6000)
    code, out, _ = run_cli(capsys, "decompose", spec, "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["minimal"]["pal"] == 2653
    else:
        assert "pal=2653 " in out


def test_decompose_palindrome_with_one_factor_is_fast(capsys):
    # multibonacci:13 is a palindrome of 8191 letters; a search that walked
    # every cut with a matching prefix count took about 18 s
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "decompose", "multibonacci:13", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"]["pal"] == 1
    assert doc["minimal"]["decompositions"] == [[[1, 8191]]]


# SHA-256 of the json and csv output of two empty profiles, recorded before
# the text format stopped crashing on them
EMPTY_PROFILES = {
    ("fib", "0", "json"): "bbfa2a8f0e7af2eb8b24ae6df34fb46a2b70e016681cfddb00934e3ec6a2bb92",
    ("fib", "0", "csv"): "b889803d7421f384f9cf47908d6f760dd6491f838d73bed7daf8de236c8fa128",
    ("lit:", "3", "json"): "d1b66c81a16c1f5984dd520172af697fce9dafcc5dd5757253be894c3a4e7f33",
    ("lit:", "3", "csv"): "b889803d7421f384f9cf47908d6f760dd6491f838d73bed7daf8de236c8fa128",
    ("fib", "0", "text"): None,
    ("lit:", "3", "text"): None,
}


@pytest.mark.parametrize("spec,horizon,fmt", sorted(EMPTY_PROFILES))
def test_empty_profile(capsys, spec, horizon, fmt):
    code, out, err = run_cli(capsys, "profile", spec, "--horizon", horizon,
                             "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "text":
        assert out == (f"word: {spec}\nhorizon: 0\nmax pal=0 lgpal=0 rgpal=0\n"
                       "first attainment: \n")
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == EMPTY_PROFILES[(spec, horizon, fmt)]


@pytest.mark.parametrize("argv", [
    ("profile", "lit:abaabab", "--horizon", "-2"),
    ("bounds", "lit:abaabab", "--horizon", "-2", "--window", "0"),
    ("bounds", "lit:abaabab", "--horizon", "5", "--window", "-3"),
])
def test_negative_horizon_or_window_is_a_usage_error(capsys, argv):
    # a negative horizon used to slice letters off the end of a finite word
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# SHA-256 of `--help` (stdout) and of usage errors (stderr, with the exit
# code), recorded before main began to reuse one parser per process; help
# is formatted 80 columns wide.
HELP_DIGESTS = [
    (("--help",), 0,
     "910e06985092136de9d06566aa0034babc8835c1a318715e557297e84e2657fe"),
    (("len", "--help"), 0,
     "bf00973e2b60659d2dfb4407315fd79b3fa337f036864498892b33946ca27126"),
    (("decompose", "--help"), 0,
     "5e9f55d5b2e5cf8b7cc75959ce50d8c487f63dd6635e4debd6b763e5b0f0e026"),
    (("profile", "--help"), 0,
     "ad5621f550a4d846118b8baae3fda0d069ea4255ec407b973df7f59dcdb0422e"),
    (("bounds", "--help"), 0,
     "d7ede151070b273972522867f56f5324502a26d8aa10c6283beb2aa417bfd19a"),
    (("next", "--help"), 0,
     "8ba0a1cbb53b324a2161e6503f3b47e72a7a0b94f53b4266a1645410d427c602"),
    (("verify", "--help"), 0,
     "9e83aee2c008ae484271d0479abcf8ae880c1db34f5de962028c13f05c83d72d"),
    (("experiments", "--help"), 0,
     "b94ebc401a19e3935461acaa988d2ac39bb420d0da6076b34cdddcc5ff75a12a"),
    ((), 2, "0b12ddee4f222f8535c3ce1498b0d189b951336c7fa97ccc5945799324fb918a"),
    (("foo",), 2,
     "66066eb45912aef49bea50518ced31d8970159b14df4109c28252063925aa4e9"),
    (("len",), 2,
     "bb376aa87bbcb54bce660723b089ec00bcaae46b2cf5462dcd66c227888d2c46"),
    (("len", "lit:ab", "--format", "xml"), 2,
     "f83a2c76ae19d33ec4c21554ba414f3e36b4c5c871b9cad361502fa3264e778f"),
]


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def parse_exit(capsys, argv):
    """Exit code and the digest of what argparse wrote for an ``argv`` on
    which the parser itself exits: stdout for help, stderr for an error."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, sha(captured.out if exc.value.code == 0 else captured.err)


@pytest.mark.parametrize("argv,code,digest", HELP_DIGESTS,
                         ids=[" ".join(a) or "(none)" for a, _, _ in HELP_DIGESTS])
def test_help_and_usage_are_pinned(capsys, monkeypatch, argv, code, digest):
    monkeypatch.setenv("COLUMNS", "80")
    assert parse_exit(capsys, argv) == (code, digest)
    # and again once the parser has served other calls
    run_cli(capsys, "len", "lit:ab", "--format", "csv")
    assert parse_exit(capsys, argv) == (code, digest)


def fresh_process(*argv):
    """stdout of ``python -m palfact.cli argv`` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(palfact.cli.__file__))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "palfact.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_help_in_a_new_process_matches_the_pinned_digest():
    assert sha(fresh_process("--help")) == HELP_DIGESTS[0][2]


def test_cli_start_up_does_not_import_the_suite_pool():
    # perfbench's setup_s times exactly this; the pool's modules load only
    # when run_suites starts workers
    src = os.path.dirname(os.path.dirname(palfact.cli.__file__))
    code = ("import sys, palfact.cli; palfact.cli.build_parser(); "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_main_builds_the_parser_once(capsys, monkeypatch):
    calls = []
    original = palfact.cli.build_parser

    def counting():
        calls.append(1)
        return original()

    monkeypatch.setattr(palfact.cli, "build_parser", counting)
    monkeypatch.setattr(palfact.cli, "_PARSER", None)
    for i in range(20):
        code, out, _ = run_cli(capsys, "len", f"lit:ab{'a' * i}")
        assert code == 0 and out.startswith("pal=")
    assert len(calls) <= 1
    assert palfact.cli.build_parser is counting
    # the public builder still returns a complete parser of its own
    parser = original()
    assert parser is not palfact.cli._PARSER
    args = parser.parse_args(["next", "lit:ab", "--max-len", "9"])
    assert (args.command, args.max_len, args.format) == ("next", 9, "text")


def test_decompose_limit_does_not_outlive_its_call(capsys):
    code, out, _ = run_cli(capsys, "decompose", "lit:aabaab", "--limit", "1")
    assert code == 0 and "(1, truncated)" in out
    code, out, _ = run_cli(capsys, "decompose", "lit:aabaab")
    assert code == 0 and "(2):" in out
    assert out == fresh_process("decompose", "lit:aabaab")


def test_timings_do_not_outlive_their_call(capsys):
    code, out, _ = run_cli(capsys, "verify", "lps", "--timings", "--format", "json")
    assert code == 0 and "runtime_seconds" in out
    code, out, _ = run_cli(capsys, "verify", "lps", "--format", "json")
    assert code == 0 and "runtime_seconds" not in out
    assert out == fresh_process("verify", "lps", "--format", "json")


def test_out_file_does_not_outlive_its_call(tmp_path, capsys):
    target = tmp_path / "len.txt"
    code, out, _ = run_cli(capsys, "len", "lit:abaab", "--out", str(target))
    assert (code, out) == (0, "")
    written = target.read_text()
    code, out, _ = run_cli(capsys, "len", "lit:abaab")
    assert code == 0
    assert out == written == fresh_process("len", "lit:abaab")
    assert target.read_text() == written


@pytest.mark.parametrize("argv", [
    ("decompose", "lit:abab"),
    ("next", "lit:ab", "--max-len", "8"),
    ("bounds", "periodic:ab", "--horizon", "50"),
    ("verify", "lps"),
    ("experiments", "occdiff"),
])
def test_csv_is_refused_where_it_is_not_rendered(capsys, argv):
    # these commands used to accept --format csv and print text or JSON
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} supports --format text or json, not csv\n"


def test_json_output_is_not_held_twice(tmp_path):
    # these 4000 random letters over a..d give 8.2 MiB of JSON; joining the
    # pieces before writing them took the traced peak to 2.28 times that
    # size, against 1.38 when the pieces are written as they are
    spec = seeded_word(6, 4, 4000)
    target = tmp_path / "decompose.json"
    main(["len", "lit:ab"])  # the parser and lazy module state exist already
    tracemalloc.start()
    try:
        code = main(["decompose", spec, "--format", "json", "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = target.stat().st_size
    assert size > 8 * 2**20
    assert peak < 1.6 * size
