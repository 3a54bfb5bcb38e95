import hashlib
import json
import random
from enum import IntEnum

import pytest

from palfact.cli import _json_doc, main


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


def test_experiments_rejects_unknown(capsys):
    code, _, err = run_cli(capsys, "experiments", "oracles")
    assert code == 2
    assert "oracles" in err


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


def test_cap_override(capsys):
    code, _, err = run_cli(capsys, "profile", "fib", "--horizon", "200",
                           "--cap", "100")
    assert code == 2
    assert "cap" in err.lower()


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
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_DIGESTS,
    ids=[" ".join(a if len(a) < 20 else a[:12] + "..." for a in argv)
         for argv, _ in GOLDEN_DIGESTS])
def test_output_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_json_writer_matches_json_dumps():
    rng = random.Random(11)
    for _ in range(2500):
        doc = {f"f{i}": random_json(rng, rng.randrange(4))
               for i in range(rng.randrange(5))}
        expected = json.dumps({"schema_version": 1, **doc}, indent=2) + "\n"
        assert _json_doc(doc) == expected


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
