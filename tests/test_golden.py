"""Byte-stability of the JSON output.

Each CLI case runs one subcommand with ``--format json`` on a polynomial
input and compares the sha256 of its stdout with a recorded digest.  The
opaque cases do the same for the library on a generic opaque density, whose
total derivatives go through the chain rule: the closed equivalent, the
terminal of the residual-operator recurrence and the Euler-Lagrange form.
A refactor of the engine must leave every digest unchanged; a deliberate
change of output has to re-record them.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from jetform import lepage
from jetform.cli import main
from jetform.forms import Context
from jetform.printers import form_json

CASES = [
    ("pc -n 2 -m 1 -r 1",
     "1/2*(u_x^2+u_y^2) + u*u_x*u_y",
     "7f34f4b9829acea2ebf16a3e345dfe11298926259561d87ef8a2ad4f063f9e6f"),
    ("pc -n 3 -m 2 -r 2",
     "u_xx*v_y + u*v_yz^2 - u_x*v_xy",
     "07354ec5a952441120829a9e59b1f86272075bd4a23af99e8e915252d9d79c77"),
    ("kb -n 3 -m 1 -r 1",
     "u_x*u_y*u_z + u^2*u_x - 1/3*u_y^2",
     "4f0568444601f54339a76ef7044a6a784ae532ba4715607c780b25eac257b294"),
    ("kb -n 3 -m 2 -r 1",
     "u_x*v_y*u_z - u_y*v_x + u*v_z^2",
     "07827e05bc16ab7285bb75d51319c3aa6265dfabd6db5aaeae63b4ec0d9eb0b3"),
    ("kb -n 2 -m 2 -r 1",
     "u_x*v_y - u_y*v_x",
     "57e4cebc3b0580ed3e9ade8ad4c54b295016754e65166eeac691b4e8a1e2f2a1"),
    ("kb -n 2 -m 1 -r 2 --variant plain",
     "u_xx*u_y^2 + u_x*u_xy",
     "4e070c419fe859b7a32f0a9930047816a4635ed30533e1dd907377ecc80ad854"),
    ("kb -n 2 -m 1 -r 2 --variant generalized",
     "u_xx*u_y^2 + u_x*u_xy",
     "4e070c419fe859b7a32f0a9930047816a4635ed30533e1dd907377ecc80ad854"),
    ("kb -n 3 -m 1 -r 2 --variant plain",
     "u_xy*u_z^2 + u_x*u_y*u_zz",
     "d4391bd69fae3de4488aaa0de3b189ef53d0ef8044fa69e66a08c44029d333e6"),
    ("kb -n 3 -m 1 -r 2 --variant generalized",
     "u_xy*u_z^2 + u_x*u_y*u_zz",
     "d4391bd69fae3de4488aaa0de3b189ef53d0ef8044fa69e66a08c44029d333e6"),
    ("kb -n 2 -m 2 -r 2 --variant plain",
     "u_xx*v_y + u_x*v_xy^2 + u_y*v_x*u",
     "58175d06d9933fcd6a395727f7bdfc177a5a53cf526f5e27a77e48ad6fe3fc8f"),
    ("kb -n 2 -m 2 -r 2 --variant generalized",
     "u_xx*v_y + u_x*v_xy^2 + u_y*v_x*u",
     "136c909cc85477dce786ca39cbcbdfd3e5352db99366697dc1793c27f231419d"),
    ("kb -n 3 -m 2 -r 2 --variant plain",
     "u_xz*v_y + u_x*v_y*u_z + v_zz*u_y^2",
     "4b25b4c7d9d94e8d28fb88aebd315048e99ec8ede65ca6830dc4f5fdee989084"),
    ("kb -n 3 -m 2 -r 2 --variant generalized",
     "u_xz*v_y + u_x*v_y*u_z + v_zz*u_y^2",
     "f55ff86891e529014c0e901f4e64436433bb4f8ef5ba4b0d3011dbbf7415a2ae"),
    ("el -n 2 -m 1 -r 1",
     "1/2*(u_x^2+u_y^2)",
     "dbe6bca0c322c08dbb741e9386d824b6c567454bd7db0c32025cdb87419e979f"),
    ("el -n 3 -m 2 -r 2",
     "u_xx*v_y^2 + u*v_yz - v*u_z^3",
     "aa86f6705dd9f6cf16daf71b2da3753dfc181d7522fa28c996b0f1d91010177c"),
    ("split -n 2 -m 1 -r 1",
     "u_1 * w(u,1) /\\ ds",
     "d0c672fb0cda14627746ea1996abf59244f5781cd72a4c04aeee058b05a6a2b4"),
    ("split -n 2 -m 1 -r 1",
     "u_1 * w(u,1) /\\ dx2 + u^2 * w(u) /\\ dx1",
     "3cb82d267646a4529a9b370a76a4f087416cfbcf44257084544ef255a43c3e98"),
    ("split -n 3 -m 1 -r 2",
     "u_1 * w(u,11) /\\ dx2 /\\ dx3 + u_2 * w(u,12) /\\ dx1 /\\ dx3",
     "a3d789b312ce6a3dc4c2be2dd1301439ab57089cdee327704d905b97e0657f4b"),
    ("split -n 2 -m 2 -r 2",
     "u_1 * w(v,12) /\\ ds + v_2 * w(u,11) /\\ ds + u*v * w(u,2) /\\ ds",
     "5e6cb091987809ae3cbda979e6c24a9ebfaa5fd322398852cc60cce0e4b21aa6"),
    ("split -n 2 -m 1 -r 3",
     "u_1 * w(u,112) /\\ ds + u_2*u * w(u,12) /\\ ds",
     "2f487c64b5f12feab1c5d017553d1548eac57b1f06f1f8d73751e168865b8768"),
    ("split -n 2 -m 1 -r 1",
     "u^2 * w(u) /\\ dx1 + u_2 * w(u) /\\ dx2",
     "9d37331da9eac9901b57e82b4333845a0ec60101694b537596790c6956097cb0"),
    ("split -n 3 -m 1 -r 1",
     "u_1 * w(u,3) /\\ dx3 + u_2^2 * w(u,2) /\\ dx2 + u * w(u) /\\ dx1",
     "3e34c60ba608fc42924091c67049850df3d4c63ea4f70cc204c50a688c0b6937"),
    ("splitlike -n 3 -m 1 -r 1",
     "u_1 * w(u,3) /\\ dx3 + u_2^2 * w(u,2) /\\ dx2 + u * w(u) /\\ dx1",
     "3e34c60ba608fc42924091c67049850df3d4c63ea4f70cc204c50a688c0b6937"),
    ("splitlike -n 2 -m 1 -r 1",
     "u_1 * w(u,1) /\\ dx2",
     "96eb27bd8710a91db9902c6632d3af3340cf68a0062be2cbeb89b3d65a94c5cf"),
    ("splitlike -n 3 -m 2 -r 2",
     "u_1 * w(v,11) /\\ dx2 /\\ dx3 + v_2 * w(u,2) /\\ dx1 /\\ dx3",
     "c1ba40139245aca55e4c005fede2e6a59737a1643ec597662cecec77fe822545"),
    ("alpha -n 2 -m 1 -r 2",
     "u_1 * w(u,11) /\\ dx2 + u_2 * w(u,12) /\\ dx1",
     "32754d58fd67099f03dfdea054d6f801fef1666e4ceeb29ab7201d1abfa6ec30"),
    ("alpha -n 3 -m 2 -r 2",
     "v_3 * w(u,13) /\\ dx2 /\\ dx3 + u_2 * w(v,22) /\\ dx1 /\\ dx2",
     "f43b3c127f7d4b2422fb66405669ed7bc65a69d403408b76657c77c9cea47a4c"),
    ("residual -n 2 -m 1 -r 1 --codegree 1",
     "u_1 * w(u,1) /\\ dx2",
     "218a12a4af1ba770cd9e144327108e25d563ea05459a2e9344447df21b7c6b1d"),
    ("residual -n 3 -m 2 -r 2 --codegree 1",
     "u*v_1 * w(u,12) /\\ dx2 /\\ dx3 + v_3 * w(v,3) /\\ dx1 /\\ dx2",
     "946408b9f8bc6a0c10a8d3ad0b36fcb4f98f5a2eaf7988141a913b0e62d3bad2"),
    ("residual -n 2 -m 1 -r 2 --codegree 0",
     "u_1*u_12 * w(u,12) /\\ ds + u^2 * w(u,1) /\\ ds",
     "0a6f019cd655df9765b3595ebd42bf897c219c624d88a6d246685a91a2098b47"),
    ("residual -n 3 -m 1 -r 2 --codegree 2",
     "u_1*u_3 * w(u,3) /\\ dx3 + u^2 * w(u,23) /\\ dx2",
     "25659d9307e054da068fa2ddde44bfb6b3edf9a99357496a581de6ae14ab32aa"),
    ("residual -n 2 -m 2 -r 1 --contact 2 --codegree 0",
     "u_1 * w(u,1) /\\ w(v,2) /\\ ds + v * w(u,2) /\\ w(v) /\\ ds",
     "6777a73987850a7c119249d717f8ff26c0d4ed25ff345d506a320234a33c322e"),
    ("ieuler -n 2 -m 1 -r 1",
     "u_1 * w(u,1) /\\ w(u) /\\ ds",
     "8cfcaccc73334810cf824e60b6c2c178fd1d50d4842b977f3d8850b8ab1b4c49"),
    ("ieuler -n 3 -m 2 -r 2",
     "u*v_2 * w(u,12) /\\ w(v,3) /\\ dx1 /\\ dx2 /\\ dx3",
     "0b2d855e05a618cca2e9a8c3fd66ac3116e4b4cc306431b502d640ae405c3690"),
]


def _json_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--format", "json"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("flags,expr,digest", CASES,
                         ids=[f"{c[0]}|{c[1]}" for c in CASES])
def test_json_digest(flags, expr, digest):
    assert _json_digest(flags.split() + [expr]) == digest


# residual cases at codegree s >= 1: without --codegree the codegree is read
# off the form, so the output is the same
LOWER_RESIDUAL = [c for c in CASES
                  if c[0].startswith("residual") and "--codegree 0" not in c[0]]


@pytest.mark.parametrize("flags,expr,digest", LOWER_RESIDUAL,
                         ids=[f"{c[0]}|{c[1]}" for c in LOWER_RESIDUAL])
def test_residual_codegree_defaults_to_the_forms_own(flags, expr, digest):
    argv = flags.split()
    at = argv.index("--codegree")
    del argv[at:at + 2]
    assert _json_digest(argv + [expr]) == digest


# (n, m, order) -> digests of the closed equivalent, the recurrence terminal
# (equal to it) and the Euler-Lagrange form of generic_lagrangian
OPAQUE_CASES = [
    ((2, 1, 1),
     "9006c55968a55b7b0fee9d95eae25d75be72c4e6e43575b6187e538a0756c40c",
     "57658355128520c3f4cd91731cb1d6f10f4c296ec3321fe3326aee4468b1129f"),
    ((3, 1, 1),
     "68da8d59d970e70583d7a18deb1908de46471024c6b2624bd7eb3926e73daaf0",
     "a804d678384ca3c1b37ae29ff97dea5432f40024f39d941c71f865450647de32"),
    ((2, 2, 2),
     "de4d4b37acd584e1ecb576e60d5ae53b1fdd32e0dd294a1c2c6f09af99338a71",
     "c807b2637e8a189e72795f04934ed7c14c94183ce99416285f6acdf8d131c0e4"),
    ((3, 1, 2),
     "370aeb1d30a2792ed0c30962fad08b1cb1a1a4839f84810555f877ef6c261083",
     "9e7b1a23f4605a01dae5cfc32995d0d24f16176fc940c64c9a4ea8307203c55e"),
    ((4, 1, 2),
     "d20de5288d5e06df3de4249992f40010178e08ed8d6891e0ce94022d48661b51",
     "df3bcb9774f2a534ff0db8eb308d4d75c338b66d2a3a2c2277d1e4cc22feeb84"),
    ((3, 2, 2),
     "4ae8f8fbe3a97ee221d61ee07adc8745b9c14d898ed2411387d0003638b25f9d",
     "bce0445e341829638323b133fecf50efb7305e3abb8a532bb26026ea79413a8f"),
]


def _digest(form) -> str:
    return hashlib.sha256(form_json(form).encode()).hexdigest()


@pytest.mark.parametrize("nmr,closed_digest,el_digest", OPAQUE_CASES,
                         ids=[f"n{n}m{m}r{r}" for (n, m, r), _, _ in OPAQUE_CASES])
def test_opaque_json_digest(nmr, closed_digest, el_digest):
    n, m, r = nmr
    lam = lepage.generic_lagrangian(Context(n=n, m=m), r)
    closed = (lepage.krupka_betounes_first(lam) if r == 1
              else lepage.kb_second_order(lam, "plain"))
    assert _digest(closed) == closed_digest
    assert _digest(lepage.rossi_recurrence(lam).terminal) == closed_digest
    assert _digest(lepage.euler_lagrange(lam)) == el_digest


# Atoms order a monomial by creation rank, the printers by key.  A process
# that first creates jet coordinates and labelled partials of L in reverse
# key order must print every case above to the same bytes.
_REVERSED_ATOMS_FIRST = r"""
import contextlib, hashlib, io, json, sys
from jetform import lepage, symexpr as se
from jetform.cli import main
from jetform.forms import Context
from jetform.printers import form_json

opaque, cli = json.loads(sys.argv[1])
shapes = sorted({(n, m) for (n, m, _), _, _ in opaque}, reverse=True)
coords = {(n, m): [('x', i) for i in range(1, n + 1)]
          + [('y', sigma, J) for sigma in range(1, m + 1) for J in se.jet_keys(n, 3)]
          for n, m in shapes}
held = [se.atom(c) for c in sorted({c for n, m in shapes for c in coords[n, m]}, reverse=True)]
for n, m in shapes:
    for order in (2, 1):
        f = se.opaque("L", n=n, m=m, order=order)
        for c in reversed(coords[n, m]):
            fc = se.partial(f, c)
            held += [fc] + [se.partial(fc, d) for d in reversed(coords[n, m])]
assert se.atom(('x', 4)).rank > se.atom(('y', 1, ())).rank > se.atom(('y', 2, (3, 3, 3))).rank


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()

out = []
for (n, m, r), _, _ in opaque:
    lam = lepage.generic_lagrangian(Context(n=n, m=m), r)
    closed = (lepage.krupka_betounes_first(lam) if r == 1
              else lepage.kb_second_order(lam, "plain"))
    out.append([digest(form_json(closed)),
                digest(form_json(lepage.rossi_recurrence(lam).terminal)),
                digest(form_json(lepage.euler_lagrange(lam)))])
for flags, expr, _ in cli:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(flags.split() + [expr, "--format", "json"]) == 0
    out.append(digest(text.getvalue()))
print(json.dumps(out))
"""


def test_output_does_not_depend_on_atom_creation_order():
    cli = [c for c in CASES if c[0] in ("pc -n 3 -m 2 -r 2",
                                        "kb -n 3 -m 2 -r 2 --variant generalized")]
    assert len(cli) == 2
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", _REVERSED_ATOMS_FIRST,
                          json.dumps([OPAQUE_CASES, cli])],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got[:len(OPAQUE_CASES)] == [[closed, closed, el] for _, closed, el in OPAQUE_CASES]
    assert got[len(OPAQUE_CASES):] == [digest for _, _, digest in cli]
