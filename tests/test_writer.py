"""The one JSON writer: its layout, and the values it writes for every
command that writes JSON, against the indented single-dump rule it replaced."""

import json
from fractions import Fraction

import pytest

from ringkakeya import cli, errors, kakeya
from ringkakeya.errors import _json_value, write_json

BIG = 2**60  # past 2^53, so written as a decimal string


def reference_value(data):
    """What `data` parses to when written by the earlier rule: one dump of
    _json_value(data), indented by one space, with sorted keys."""
    return json.loads(json.dumps(_json_value(data), indent=1, sort_keys=True))


@pytest.fixture
def recorded(monkeypatch):
    """Every (data, path) handed to write_json by the CLI and the set saver,
    which still write through the real writer."""
    calls = []

    def record(data, path=None):
        calls.append((data, path))
        errors.write_json(data, path)

    for module in (cli, kakeya):
        monkeypatch.setattr(module, "write_json", record)
    return calls


@pytest.fixture
def sets(tmp_path):
    made = {}
    for name, N, n, method in [("s15", 15, 2, "tangent-product"),
                               ("t7", 7, 2, "tangent"), ("f4", 4, 2, "full")]:
        made[name] = tmp_path / f"{name}.json"
        assert cli.main(["kakeya", "construct", "--N", str(N), "--n", str(n),
                         "--method", method, "--out", str(made[name])]) == 0
    return made


COMMANDS = {
    "certify-prime": (["certify", "{t7}", "--pipeline", "prime"], 0),
    "certify-two-primes": (["certify", "{s15}", "--pipeline", "two-primes"], 0),
    "certify-square-free": (["certify", "{s15}", "--pipeline", "square-free",
                             "--out", "{out}"], 0),
    "certify-prime-power": (["certify", "{f4}", "--pipeline", "prime-power"], 0),
    "construct": (["kakeya", "construct", "--N", "10", "--n", "3", "--method",
                   "tangent-product", "--out", "{out}"], 0),
    "power": (["kakeya", "power", "{s15}", "--k", "2", "--out", "{out}"], 0),
    "minsearch": (["kakeya", "minsearch", "--N", "3", "--n", "2", "--out", "{out}"], 0),
    "wrank": (["wrank", "--p", "2,3", "--k", "1,2", "--n", "2,3"], 0),
    "wrank-refused": (["wrank", "--p", "2305843009213693951", "--n", "1"], 3),
    "mv-search": (["mv", "search", "--p", "3", "--k", "1", "--n", "3", "--target", "4"], 0),
    "bound": (["bound", "--N", "30", "--n", "3"], 0),
}


@pytest.mark.parametrize("argv,code", COMMANDS.values(), ids=COMMANDS)
def test_every_output_parses_to_the_indented_dump(tmp_path, capsys, sets,
                                                  recorded, argv, code):
    out = tmp_path / "out.json"
    names = {f"{{{k}}}": str(v) for k, v in sets.items()} | {"{out}": str(out)}
    assert cli.main([names.get(a, a) for a in argv]) == code
    text = out.read_text() if "{out}" in argv else capsys.readouterr().out
    data, path = recorded[-1]
    assert path == (str(out) if "{out}" in argv else None)
    assert json.loads(text) == reference_value(data)
    # one line per top-level entry, between the bracket lines
    assert text.endswith("\n") and len(text.splitlines()) == len(data) + 2


def test_a_set_file_is_six_lines(sets):
    text = sets["s15"].read_text()
    assert [line[:6] for line in text.splitlines()] == [
        "{", ' "N": ', ' "n": ', ' "poin', ' "witn', "}"]


def test_refused_wrank_row_keeps_big_ints_as_strings(capsys):
    assert cli.main(["wrank", "--p", "2305843009213693951", "--n", "1,2"]) == 3
    rows = json.loads(capsys.readouterr().out)
    assert [row["p"] for row in rows] == ["2305843009213693951"] * 2
    assert rows[1]["extent"] == str(2305843009213693951**2)


@pytest.mark.parametrize("data,text", [
    ({"a": {"b": [BIG]}, "c": 1},
     '{\n "a": {"b": ["1152921504606846976"]},\n "c": 1\n}\n'),
    ([1, {"b": Fraction(3, 4), "a": [BIG, -BIG]}],
     '[\n 1,\n {"a": ["1152921504606846976", "-1152921504606846976"], '
     '"b": "3/4"}\n]\n'),
    ({"z": (2**53 - 1, 2**53), "y": Fraction(-5, 1)},
     '{\n "y": "-5/1",\n "z": [9007199254740991, "9007199254740992"]\n}\n'),
    ({}, "{}\n"),
    ([], "[]\n"),
    (7, "7\n"),
    ("text", '"text"\n'),
    (BIG, '"1152921504606846976"\n'),
    (Fraction(1, 2), '"1/2"\n'),
    (None, "null\n"),
], ids=["nested-big-int", "list", "tuple-and-fraction", "empty-dict",
        "empty-list", "int", "str", "big-int", "fraction", "null"])
def test_layout(tmp_path, capsys, data, text):
    path = tmp_path / "x.json"
    write_json(data, path)
    write_json(data)
    assert path.read_text() == capsys.readouterr().out == text
    assert json.loads(text) == reference_value(data)
