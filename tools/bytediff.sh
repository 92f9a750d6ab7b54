#!/usr/bin/env bash
# Compare the CLI output of this tree with that of a git revision, byte for
# byte, plus a dump of the g-level values that no CLI command prints.
#
#   tools/bytediff.sh REF
#
# Exports REF into a temporary directory (git archive, so nothing is written
# under .git), runs the same loomfold commands on both trees (from ./src,
# nothing installed) and compares stdout, stderr and exit code of each.
# Prints the differences and exits 1 if there are any.
set -u
ref=${1:?usage: tools/bytediff.sh REF}
root=$(git rev-parse --show-toplevel) || exit 2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref" || exit 2

# inputs, named relative to $tmp so that both trees print the same
one='{"exps": [0, 0, 0], "coeff": {"order": 1, "coeffs": ["1"]}}'
echo "{\"name\": \"plain\", \"pairs\": [{\"i\": 1, \"j\": 0, \"terms\":
  {\"0,1\": {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$one]}}}]}" >"$tmp/fam.json"
# the same family with the coefficient xi_5, foreign to every catalog field
xi5='{"exps": [0, 0, 0], "coeff": {"order": 5, "coeffs": ["0", "1", "0", "0"]}}'
echo "{\"name\": \"xi5\", \"pairs\": [{\"i\": 1, \"j\": 0, \"terms\":
  {\"0,1\": {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$xi5]}}}]}" >"$tmp/fam5.json"
# one relation with both coefficients: it sums in Q(xi_lcm(L, 5)), so on
# A2a-flip its residuals print order 10
z1='{"exps": [1, 0, 0], "coeff": {"order": 1, "coeffs": ["1"]}}'
z2xi5='{"exps": [0, 1, 0], "coeff": {"order": 5, "coeffs": ["0", "1", "0", "0"]}}'
echo "{\"name\": \"mixed\", \"pairs\": [{\"i\": 1, \"j\": 0, \"terms\":
  {\"0,1\": {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$z1, $z2xi5]}}}]}" >"$tmp/famx.json"
# z1 alone, of total degree 1, on every pair (i + 1, i) of A3a-rot and of
# A4a-rot: each is one class under the rotation, so the residuals of its
# shifted pairs carry the phase xi_N^(a (sum(modes) + 1))
for last in 3 4; do
  pairs=
  for i in $(seq 0 $last); do
    pairs="$pairs${pairs:+,} {\"i\": $(((i + 1) % (last + 1))), \"j\": $i, \"terms\":
  {\"0,1\": {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$z1]}}}"
  done
  echo "{\"name\": \"z1\", \"pairs\": [$pairs]}" >"$tmp/famz$last.json"
done
# z1 + xi_5 z2 on every pair (i + 1, i) of A3a-rot: one class whose
# coefficient orders mix, so its shifted pairs are derived in Q(xi_20)
pairs=
for i in 0 1 2 3; do
  pairs="$pairs${pairs:+,} {\"i\": $(((i + 1) % 4)), \"j\": $i, \"terms\":
  {\"0,1\": {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$z1, $z2xi5]}}}"
done
echo "{\"name\": \"mixed\", \"pairs\": [$pairs]}" >"$tmp/famzx3.json"
# z1 in one slot and z1 z2 w in the other, of degrees 1 and 3, on every pair
# (i + 1, i) of A3a-rot: moved to the class representative, the shifted
# pairs a = 1 and a = 3 both scale the second slot by xi_4^2 = -1, so they
# share one evaluation
z1z2w='{"exps": [1, 1, 1], "coeff": {"order": 1, "coeffs": ["1"]}}'
pairs=
for i in 0 1 2 3; do
  pairs="$pairs${pairs:+,} {\"i\": $(((i + 1) % 4)), \"j\": $i, \"terms\":
  {\"0,1\": {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$z1]},
   \"1,0\": {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$z1z2w]}}}"
done
echo "{\"name\": \"degrees\", \"pairs\": [$pairs]}" >"$tmp/famd3.json"
# the plain family on every ordered pair i != j of A5a-rot: the rotation makes
# the ordered pairs one class, so each of the 30 pairs (mu^a 0, mu^b 0)
# reads the brackets of (0, 0) through its own shift pair (a, b)
pairs=
for i in 0 1 2 3 4 5; do
  for j in 0 1 2 3 4 5; do
    [ "$i" = "$j" ] && continue
    pairs="$pairs${pairs:+,} {\"i\": $i, \"j\": $j, \"terms\":
  {\"0,1\": {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$one]}}}"
  done
done
echo "{\"name\": \"plain\", \"pairs\": [$pairs]}" >"$tmp/fam5all.json"
# one z-slot (vars z1, w): its grid prints as modes in [-1,1]^2 at modes 1
w1='{"exps": [0, 1], "coeff": {"order": 1, "coeffs": ["1"]}}'
echo "{\"name\": \"arity1\", \"pairs\": [{\"i\": 1, \"j\": 0, \"terms\":
  {\"0\": {\"vars\": [\"z1\", \"w\"], \"terms\": [$w1]}}}]}" >"$tmp/fam1.json"
# the same on the pair (2, 1), adjacent in G2^(1) (nodes 0 and 1 are not)
echo "{\"name\": \"arity1\", \"pairs\": [{\"i\": 2, \"j\": 1, \"terms\":
  {\"0\": {\"vars\": [\"z1\", \"w\"], \"terms\": [$w1]}}}]}" >"$tmp/fam21.json"
# the plain family on a pair that is no index pair: a_00 = 2
echo "{\"name\": \"diag\", \"pairs\": [{\"i\": 0, \"j\": 0, \"terms\":
  {\"0,1\": {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$one]}}}]}" >"$tmp/fam00.json"
# an extra factor z1 + w on the pair (0, 1) of family p
zw='{"exps": [1, 0, 0], "coeff": {"order": 1, "coeffs": ["1"]}},
  {"exps": [0, 0, 1], "coeff": {"order": 1, "coeffs": ["1"]}}'
echo "{\"pairs\": [{\"i\": 0, \"j\": 1, \"poly\":
  {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$zw]}}]}" >"$tmp/extra.json"
echo '{"cartan": [[2, -1], [-4, 2]], "mu": [0, 1]}' >"$tmp/a22.json"
# A4a-rot relabelled by i -> 2i + 1 mod 5: mu is i -> i + 2 and the affine
# node is 1, so a pair is reached from its class representative by a shift
# that is not the difference of their labels
echo '{"cartan": [[2, 0, -1, -1, 0], [0, 2, 0, -1, -1], [-1, 0, 2, 0, -1],
  [-1, -1, 0, 2, 0], [0, -1, -1, 0, 2]], "mu": [2, 3, 4, 0, 1]}' >"$tmp/a4rel.json"
# D4a-triality relabelled by 0 1 2 3 4 -> 3 0 1 2 4: the affine node is 3,
# mu is 0 -> 2 -> 4 -> 0, and the classes of (1, 0) and (3, 0) have a least
# pair that is not (0, *)
echo '{"cartan": [[2, -1, 0, 0, 0], [-1, 2, -1, -1, -1], [0, -1, 2, 0, 0],
  [0, -1, 0, 2, 0], [0, -1, 0, 0, 2]], "mu": [2, 1, 4, 3, 0]}' >"$tmp/d4rel.json"
# A1: one node, no negative entry
echo '{"cartan": [[2]]}' >"$tmp/a1.json"
# D4^(3): its realization lives in Q(xi_3), and building it inverts 49
# non-rational values; the one-pair family fails with Q(xi_3) residuals
echo '{"cartan": [[2, -1, 0], [-1, 2, -3], [0, -1, 2]], "mu": [0, 1, 2]}' >"$tmp/d43.json"
echo "{\"name\": \"plain12\", \"pairs\": [{\"i\": 1, \"j\": 2, \"terms\":
  {\"0,1\": {\"vars\": [\"z1\", \"z2\", \"w\"], \"terms\": [$one]}}}]}" >"$tmp/fam12.json"
# inputs that classification rejects or that test its pivots: indefinite,
# hyperbolic, not symmetrizable, G2^(1) with its nodes relabelled (null
# labels [1, 2, 3]), and a permutation of A3 that is no automorphism
echo '{"cartan": [[2, -3], [-3, 2]]}' >"$tmp/indef.json"
echo '{"cartan": [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]}' >"$tmp/hyper.json"
echo '{"cartan": [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]}' >"$tmp/nosym.json"
echo '{"cartan": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]]}' >"$tmp/g21.json"
echo '{"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "mu": [1, 0, 2]}' >"$tmp/a3bad.json"
# every row of the twist table and every folded core: the twisted loop cores
# D3^(2) (D3 read as A3), A4^(2), A5^(2), D4^(2) and E6^(2), the folded cores
# of G2^(1) and F4^(1), C2^(1) and B3^(1) under a flip, and the finite folded
# cores F4, G2, C3 and B3 under the identity
twists="d32:D3^(2) a42:A4^(2) a52:A5^(2) d42:D4^(2) e62:E6^(2) g21id:G2^(1)
  f41:F4^(1) c21flip:C2^(1):2,1,0 b31flip:B3^(1):1,0,2,3 f4id:F4 g2id:G2
  c3id:C3 b3id:B3"
(cd "$tmp" && PYTHONPATH="$root/src" python3 -c '
import json, sys
from loomfold.cartan import canonical_matrix
for job in sys.argv[1:]:
    name, label, *mu = job.split(":")
    m = [list(row) for row in canonical_matrix(label)]
    mu = [int(x) for x in mu[0].split(",")] if mu else list(range(len(m)))
    with open(name + ".json", "w") as out:
        json.dump({"cartan": m, "mu": mu}, out)
' $twists) || exit 2
# the g-level values, which no CLI command prints: the affinize generators of
# 14 affine labels and, per catalog entry, the generators, the g-level
# automorphism on every unit of t2-degree |m2| <= 2 (and on k2), the image
# under MuHat(real, 2, 2) of every theta image with |m| <= 1, and the
# fixed-block dimensions at m1 = 1, each or its error; the fixed-block dimensions
# at m1 = 3 on the tests' window (sized for modes 4) of every entry, or the
# error; the span ranks per block of the theta closure at (3, 2) in the window
# (11, 5), which runs on the rotations too; the fixed-block dimensions at m1 = 3
# of A2a-flip in that window with theta_x(1, m, +1) replaced by the
# un-averaged t1^m (x) e_1, at m = 1 and at m = 5 (in the closure's margin),
# and with mu_hat doubled on the elements of several keys at t2-degree +-2,
# which no block key and no seed is (the fallbacks of the capped span
# closure); and the residuals of the Cartan checks at modes
# 2, which every catalog entry passes, with every bracket doubled (the loop
# and central parts of the kernel's accumulate step, realize._loop_bracket,
# which direct and placed brackets both go through) and one coefficient of
# theta_x(0, 1, +1) doubled.  Node 0 is the least node of its mu-orbit, so
# that corruption sets every other node of the orbit apart: each pair with
# one of them is its own class, and every report is that of the pairs
# evaluated alone.  Then the full suite of A2a-rot at modes 1 with
# theta_x(0, k, -1) corrupted, where some classes evaluate both signs, and
# last the Cartan checks at modes 2 of E6-flip and A3a-rot with one image
# corrupted where the node rows are summed.  First of all the finite
# automorphisms: the tables of every folded type B2-B5, C2-C5, F4 and G2,
# omega_0 of each, the twist nu of every row of the twist table (the loop
# cores of the affine types up to size 9 and the folding sources), and the
# tables and omega_0 of every core of those rows and of E7 and E8.  Tables
# are printed in their own key order, outer and inner.
cat >"$tmp/gdump.py" <<'EOF'
import json

import loomfold.realize as realize
from loomfold.cartan import _candidates
from loomfold.catalog import load_entries
from loomfold.chevalley import _FOLDS, chevalley, diagram_twist, mu_extend_finite
from loomfold.errors import LoomfoldError
from loomfold.exactnum import CycNum
from loomfold.polys import family_p
from loomfold.presentation import Verifier, suite_window
from loomfold.realize import MuHat, Realization, affinize


def show(v):
    return "{" + ", ".join(f"{k}: {v[k]!r}" for k in sorted(v)) + "}"


folded = [f"{letter}{rank}" for letter in "BC" for rank in range(2, 6)] + ["F4", "G2"]
for label in folded:
    alg = chevalley(label)
    print("folded", label, alg.basis, list(alg.brackets.items()), list(alg.form.items()))
    print("omega", label, *alg.omega)
rows = {row for n in range(2, 10) for row in (c[:3] for c in _candidates("affine", n))}
for label in folded:
    src_letter, src_rank, r = _FOLDS[label[0]]
    rows.add((src_letter, src_rank(int(label[1:])), r))
for row in sorted(rows):
    core, nu = diagram_twist(*row)
    print("nu", *row, core, nu, *map(show, mu_extend_finite(chevalley(core), nu)))
for core in sorted({diagram_twist(*row)[0] for row in rows} | {"E7", "E8"}):
    alg = chevalley(core)
    print("core", core, alg.basis, list(alg.brackets.items()), list(alg.form.items()))
    print("omega", core, *alg.omega)

for label in ("A1^(1) A2^(1) A3^(1) B3^(1) C2^(1) D4^(1) G2^(1) F4^(1) "
              "A2^(2) A4^(2) A5^(2) D3^(2) D4^(2) D4^(3)").split():
    for node, gens in enumerate(affinize(label)[1]):
        print("affinize", label, node, *map(show, gens))
for e in load_entries(None):
    real = Realization(e.gcm, e.mu, m1_window=6, m2_window=4)
    for node, gens in enumerate(real.gens):
        print("gens", e.name, node, *map(show, gens))
    t2 = 2 if real.galg.mode == "affine" else 0
    units = [("L", 0, m2, b) for m2 in range(-t2, t2 + 1) for b in range(real.galg.alg.dim)]
    if t2:
        units.append(("K2", 0))
    mu = real.mu_on_g()
    for u in units:
        print("mu_on_g", e.name, u, show(mu.apply({u: CycNum.one(real.field)})))
    try:
        hat = MuHat(real, 2, 2)
        for i in range(real.gcm.n):
            for m in (-1, 0, 1):
                for pick in range(3):
                    print("muhat", e.name, i, m, pick, show(hat.apply(real._theta(pick, i, m))))
    except LoomfoldError as exc:
        print("muhat", e.name, type(exc).__name__, exc)
    try:
        print("fixed", e.name, real.fixed_subalgebra_dims(1))
    except LoomfoldError as exc:
        print("fixed", e.name, type(exc).__name__, exc)
for e in load_entries(None):
    m1, m2 = suite_window(e.gcm, e.mu, family_p(e.gcm, e.mu), 4)
    real = Realization(e.gcm, e.mu, max(m1, 14), m2)
    try:
        print("fixed3", e.name, real.fixed_subalgebra_dims(3))
    except LoomfoldError as exc:
        print("fixed3", e.name, type(exc).__name__, exc)
    print("span", e.name, sorted(Realization(e.gcm, e.mu, 11, 5)._theta_span(3, 2).items()))
e = next(e for e in load_entries(None) if e.name == "A2a-flip")
for m in (1, 5):
    real = Realization(e.gcm, e.mu, 11, 5)
    real._theta_cache[(0, 1, m)] = real.embed(m, real.gens[1][0])
    print("tampered", e.name, m, real.fixed_subalgebra_dims(3))
true_apply = realize.MuHatClosed.apply


def wrong_apply(self, x):
    img = true_apply(self, x)
    if len(x) > 1 and any(k[0] == "L" and abs(k[2]) == 2 for k in x):
        return {k: c + c for k, c in img.items()}
    return img


realize.MuHatClosed.apply = wrong_apply
print("tampered", e.name, "mu_hat", Realization(e.gcm, e.mu, 11, 5).fixed_subalgebra_dims(3))
realize.MuHatClosed.apply = true_apply
kernel = realize._loop_bracket


def doubled(*args):
    # (loop, central, order, den), or with the output degrees after loop
    loop, *degrees, central, order, den = kernel(*args)
    central = {d: 2 * v if type(v) is int else [2 * x for x in v] for d, v in central.items()}
    return {k: c + c for k, c in loop.items()}, *degrees, central, order, den


for e in load_entries(None):
    real = Realization(e.gcm, e.mu, 12, 5)
    theta = real.theta_x(0, 1, +1)
    if theta:
        key = min(theta)
        real._theta_cache[(0, 0, 1)] = {k: c + c if k == key else c for k, c in theta.items()}
    realize._loop_bracket = doubled
    report = Verifier(real).verify_cartan_relations(2).to_json()
    realize._loop_bracket = kernel
    print("cartan", e.name, json.dumps(report, sort_keys=True))
# theta_x(0, k, -1) of A2a-rot with the coefficient of one basis vector
# doubled at every mode k: node 0 fails the image check of the derived sign,
# so its classes evaluate both signs, while nodes 1 and 2, set apart, derive
# theirs.  The images stay periodic in t1, so residue classes of modes are
# still placed from their first modes: a corruption at one mode would also
# make the classes of node 0 bracket every value directly
e = next(e for e in load_entries(None) if e.name == "A2a-rot")
fam = family_p(e.gcm, e.mu)
real = Realization(e.gcm, e.mu, *suite_window(e.gcm, e.mu, fam, 1))
b = min(key[3] for key in real.theta_x(0, 0, -1))
for k in range(-real.m1w, real.m1w + 1):
    theta = real.theta_x(0, k, -1)
    real._theta_cache[(1, 0, k)] = {key: c + c if key[3] == b else c for key, c in theta.items()}
report = Verifier(real).run_suite(fam, 1).to_json()
print("minus", e.name, json.dumps(report, sort_keys=True))
# two inputs that the node rows sum, not take from the audit: on E6-flip
# theta_h(i, 1) of the least fixed node i, zero on true images, given the
# loop terms of theta_h(i, 0) moved to t1-degree 1, so that its row
# (1 - xi_2) theta_h(i, 1) is nonzero; on A3a-rot theta_x(mu 0, 1, -1)
# doubled, which sets mu 0 apart and fails the rows of nodes 0 and mu 0
for name in ("E6-flip", "A3a-rot"):
    e = next(e for e in load_entries(None) if e.name == name)
    real = Realization(e.gcm, e.mu, 12, 5)
    if name == "E6-flip":
        i = min(i for i in range(e.gcm.n) if e.mu.apply(i) == i)
        theta = real.theta_h(i, 0)
        real._theta_cache[(2, i, 1)] = {("L", 1) + k[2:]: c for k, c in theta.items() if k[0] == "L"}
    else:
        i = e.mu.apply(0)
        real._theta_cache[(1, i, 1)] = {k: c + c for k, c in real.theta_x(i, 1, -1).items()}
    report = Verifier(real).verify_cartan_relations(2).to_json()
    print("nodes", name, json.dumps(report, sort_keys=True))
EOF
entries=$(cd "$tmp" && PYTHONPATH="$root/src" python3 -c \
  'from loomfold.catalog import load_entries; print(*(e.name for e in load_entries(None)))') \
  || exit 2
{
  echo catalog
  for e in $entries; do
    for cmd in classify fold crosscheck polys "polys --crosscheck" "polys --format latex"; do
      echo "$cmd --entry $e"
    done
  done
  echo "verify --entry all --modes 2"
  echo "verify --entry A2a-flip --modes 1 --family user:fam.json"
  echo "verify --entry A2a-flip --modes 1 --family user:fam5.json"
  echo "verify --entry A2a-flip --modes 1 --family user:famx.json"
  echo "verify --entry A2a-flip --modes 1 --family user:fam1.json"
  echo "verify --entry A2a-flip --modes 1 --family user:fam00.json"
  echo "verify --entry A2a-flip --modes 1 --family f:extra.json"
  # rotations: the pair (1, 0) is no class representative, so its failing
  # residuals come from the brackets of the pair it is shifted from
  echo "verify --entry A2a-rot --modes 1 --family user:fam.json"
  echo "verify --entry A2a-rot --modes 1 --family user:fam5.json"
  echo "verify --entry A3a-rot --modes 1 --family user:famx.json"
  echo "verify --entry A4a-rot --modes 1 --family user:fam.json"
  echo "verify --entry A3a-rot --modes 1 --family user:famz3.json"
  echo "verify --entry A4a-rot --modes 1 --family user:famz4.json"
  echo "verify --entry A3a-rot --modes 1 --family user:famzx3.json"
  echo "verify --entry A3a-rot --modes 2 --family user:famd3.json"
  # modes 2 on identity twists (N = 1) and on a flip (N = 2): failing rows
  # that are no class's first take the first's loop residual, moved
  echo "verify --entry A2a-id --modes 2 --family user:fam1.json"
  echo "verify --input g21id.json --modes 2 --family user:fam21.json"
  echo "verify --entry A2a-flip --modes 2 --family user:fam.json"
  # verify takes no window: any --window is rejected with exit 2
  echo "verify --entry A2a-flip --modes 2 --window 3,2"
  # N <= 2, where residue classes of rows have members and nested brackets
  # are placed from their class's representative, the Cartan rows' too
  echo "verify --entry A1a-flip --modes 2"
  echo "verify --entry A1a-id --modes 2"
  echo "verify --entry A2a-flip --modes 3"
  echo "verify --entry A2-id --modes 3"
  # the plain family, which fails: the residuals of the members are
  # compared too
  echo "verify --entry A2a-flip --modes 3 --family user:fam.json"
  # rotations: a shifted pair's checks come from its class representative's
  echo "verify --entry A3a-rot --modes 2"
  echo "verify --entry A4a-rot --modes 2"
  echo "verify --entry A5a-rot --modes 1 --family user:fam.json"
  echo "verify --entry A5a-rot --modes 1 --family user:fam5all.json"
  echo "verify --entry D4a-triality --modes 1 --family qlimit"
  echo "verify --input a4rel.json --modes 2"
  echo "verify --input d4rel.json --modes 1"
  echo "verify --input a1.json --modes 1"
  # A2^(2) with the identity twist: node 1 fails the image check of the
  # derived sign (-omega_hat e_1 is half of f_1), node 0 passes it
  echo "verify --input a22.json --modes 1"
  echo "verify --input a22.json --modes 1 --family user:fam.json"
  echo "verify --input d43.json --modes 1"
  echo "verify --input d43.json --modes 1 --family user:fam12.json"
  for job in $twists; do
    echo "verify --input ${job%%:*}.json --modes 1"
  done
  for job in indef hyper nosym g21; do
    echo "classify --input $job.json"
  done
  echo "fold --input a3bad.json"
  echo gdump
} >"$tmp/commands"

run() {  # run SRC OUT: stdout, stderr and "exit-code command" per numbered command
  mkdir -p "$2"
  local n=0 cmd argv
  while IFS= read -r cmd; do
    n=$((n + 1))
    argv="-m loomfold.cli $cmd"
    [ "$cmd" = gdump ] && argv=gdump.py
    # shellcheck disable=SC2086  # $argv is split into arguments on purpose
    (cd "$tmp" && PYTHONPATH="$1" python3 $argv >"$2/$n.out" 2>"$2/$n.err")
    echo "$? $cmd" >"$2/$n.exit"
  done <"$tmp/commands"
}
run "$tmp/ref/src" "$tmp/a"
run "$root/src" "$tmp/b"

status=0
for f in "$tmp"/a/*; do
  n=${f##*/}
  cmp -s "$f" "$tmp/b/$n" && continue
  echo "== $n: loomfold $(cut -d' ' -f2- "$tmp/a/${n%.*}.exit")"
  diff "$f" "$tmp/b/$n" | head -n 20
  status=1
done
[ "$status" = 0 ] && echo "bytediff: no difference from $ref in $(wc -l <"$tmp/commands") commands"
exit "$status"
