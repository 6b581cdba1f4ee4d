"""The usual set's outputs against their committed manifest.

``tests/data/usual_set.SHA256SUMS`` is the ``SHA256SUMS`` file that
``tests/usual_set.py`` writes: the sha256 of every result, ``--stats``,
``--factored`` and SMT output of the 90 models under both engines.  So
a change that should leave every output byte-identical is checked here
rather than by a hand-run diff.
"""

import pathlib

import usual_set

MANIFEST = pathlib.Path(__file__).parent / "data" / "usual_set.SHA256SUMS"


def _digests(text: str) -> dict[str, str]:
    """File name -> sha256 of a ``sha256sum``-format text."""
    return {name: digest for digest, name in (line.split("  ", 1) for line in text.splitlines())}


def test_the_usual_set_matches_its_manifest(tmp_path):
    """The ``--stats`` counters (stored polynomials, gcd kernel calls,
    abstraction sites) are in the manifest on purpose: a change that
    moves one changes the work a query does, even when every result
    stays the same.  A change that alters outputs on purpose lists the
    changed files in CHANGES.md by group and regenerates the manifest,
    from the root of the checkout, with::

        python3 tests/usual_set.py build/usual-set && cp build/usual-set/SHA256SUMS tests/data/usual_set.SHA256SUMS

    A ``.out`` file holds both result lines and counters, and a digest
    cannot tell which of them changed; ``tests/usual_set.py --compare``
    on the outputs of both trees can.
    """
    usual_set.write_outputs(tmp_path)
    expected = _digests(MANIFEST.read_text(encoding="utf-8"))
    written = _digests((tmp_path / "SHA256SUMS").read_text(encoding="utf-8"))
    differ: dict[str, list[str]] = {}
    for name in sorted(expected.keys() | written.keys()):
        if expected.get(name) != written.get(name):
            differ.setdefault(" or ".join(usual_set.parts(name, "")), []).append(name)
    assert not differ, "outputs differ from the manifest:\n" + "\n".join(
        f"{group}: {', '.join(names)}" for group, names in differ.items()
    )


def test_compare_totals_each_moved_counter_and_fails_on_an_smt_difference(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d, calls, smt in zip(dirs, (5, 3), ("(check-sat)\n", "(check-sat)\n")):
        d.mkdir()
        (d / "m.scc.out").write_text(f"f(s0, s1) = p\nstats:\n  gcd kernel calls: {calls}\n")
        (d / "n.scc.out").write_text("f(s0, s1) = q\nstats:\n  gcd kernel calls: 2\n")
        (d / "m.scc.smt2").write_text(smt)
    assert usual_set.compare(*dirs) == 0
    out = capsys.readouterr().out
    assert "counter 'gcd kernel calls': down in 1 files, up in 0; total 7 -> 5\n" in out
    (dirs[1] / "m.scc.smt2").write_text("(assert true)\n(check-sat)\n")
    assert usual_set.compare(*dirs) == 1
    assert "SMT: 1 files differ\n  m.scc.smt2\n" in capsys.readouterr().out
