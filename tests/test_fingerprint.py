"""The same-bits command sees a one-ulp move of one value, of one entry of a final iterate, and nothing on an
unchanged tree."""

import copy
import math

from entclone.analytic import alpha_critical
from entclone.sdp import build_problem, solve
from fingerprint import FLOATS, ITERATES, digest, fingerprint, moves, summary


def test_fingerprint_reports_an_objective_moved_by_one_ulp():
    grid = {"three": [0.1, alpha_critical(), 0.6]}
    ours = fingerprint(grid)
    assert len(ours) == 6 and all(len(group["points"]) == 3 for group in ours.values())
    assert fingerprint(grid) == ours
    assert moves(ours, copy.deepcopy(ours)) == ([], [])
    theirs = copy.deepcopy(ours)
    key = "ppt tol=1e-07 three"
    point = theirs[key]["points"][1]
    f_star = float.fromhex(point["f_star"])
    point["f_star"] = math.nextafter(f_star, math.inf).hex()
    assert moves(ours, theirs) == ([f"{key} alpha=0.335711: f_star |delta| = {math.ulp(f_star):.3g}"], [])
    lines = summary(ours, theirs)
    assert len(lines) == 2 * (len(FLOATS) + 1 + len(ITERATES))
    assert f"ppt f_star: 1 of 9 moved, max |delta| = {math.ulp(f_star):.3g}" in lines
    assert sum(line.endswith(": 0 of 9 moved, max |delta| = 0") for line in lines) == len(lines) - 1
    assert [k for k in ours if digest(ours[k]) != digest(theirs[k])] == [key]
    theirs[key]["points"][1]["iterations"] += 1
    assert moves(ours, theirs)[1] == [f"{key} alpha=0.335711: iterations {point['iterations']} -> {point['iterations'] - 1}"]


def test_fingerprint_reports_an_iterate_entry_moved_by_one_ulp():
    """s and z are recorded entry by entry, as the solution's final iterates; a one-ulp move of z's a33 entry
    is reported as one entry of z, in the moved lines and in the summary."""
    grid = {"one": [0.2]}
    ours = fingerprint(grid)
    key = "plain tol=1e-07 one"
    (point,) = ours[key]["points"]
    sol = solve(build_problem(0.2), tol=1e-7)
    assert [point[name] for name in ITERATES] == [[v.hex() for v in sol.s], [v.hex() for v in sol.z]]
    theirs = copy.deepcopy(ours)
    z7 = sol.z[7]
    theirs[key]["points"][0]["z"][7] = math.nextafter(z7, -math.inf).hex()
    ulp = z7 - math.nextafter(z7, -math.inf)
    assert moves(ours, theirs) == ([f"{key} alpha=0.200000: z 1 entries, max |delta| = {ulp:.3g}"], [])
    assert f"plain z: 1 of 3 moved, max |delta| = {ulp:.3g}" in summary(ours, theirs)
