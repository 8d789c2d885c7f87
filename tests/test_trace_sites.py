"""The sites that ``tests/trace_unrun.py`` requires the suite to run."""

from trace_unrun import sites_in


def test_deferred_failures_and_their_formatting_lines_are_sites():
    source = (
        "def check(rep, fails):\n"
        "    def witnesses():\n"
        "        out = []\n"
        "        for f in fails:\n"
        "            out.append(f'{f}')\n"
        "        return out\n"
        "    if fails:\n"
        "        rep.defer(witnesses)\n"
        "    rep.defer(\n"
        "        lambda: [f'{fails}'])\n"
        "    rep.fail('x')\n"
        "    raise ValueError\n")
    assert sites_in(source) == {
        5: "out.append(f'{f}')", 8: "rep.defer(witnesses)", 9: "rep.defer(",
        10: "lambda: [f'{fails}'])", 11: "rep.fail('x')",
        12: "raise ValueError"}
