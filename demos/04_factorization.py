"""Writing diagrams as generator words, and checking the round trip.

Every basis diagram is a product of the generators U_i and the special
combinations alpha, beta, epsilon, zeta.  factorize plans such a word and
verifies it by evaluation before returning; here we also factor the flip
of a diagram and compare with reversing the word.
"""

import random

from tlh.algebra import AlgebraElement, evaluate_word
from tlh.diagram import Diagram, HalfDiagram, enumerate_diagrams
from tlh.factor import factorize

print("== every diagram on 4 strands, as a word ==")
for d in enumerate_diagrams(4):
    word = factorize(d)
    assert evaluate_word(word, 4) == AlgebraElement.from_diagram(d)
    print(f"{str(d):28} = {' '.join(word) if word else '1'}")
print()

print("== a nested example on 5 strands ==")
north = HalfDiagram(5, ((1, 4, 1), (2, 3, 0)))
south = HalfDiagram(5, ((1, 2, 1), (3, 4, 0)))
d = Diagram(north, south)
word = factorize(d)
print(f"{d} = {' '.join(word)}")
print(f"round trip: {evaluate_word(word, 5) == AlgebraElement.from_diagram(d)}")
print()

print("== flipping a diagram reverses its word (alpha and beta swap) ==")
swap = {"alpha": "beta", "beta": "alpha"}
rng = random.Random(5)
pool = enumerate_diagrams(5)
for d in rng.sample(pool, 3):
    word = factorize(d)
    flipped = [swap.get(tok, tok) for tok in reversed(word)]
    print(f"{str(d):34} = {' '.join(word) if word else '1'}")
    print(f"{str(d.star()):34} = {' '.join(flipped) if flipped else '1'}"
          f"   matches factorize: {factorize(d.star()) == flipped or evaluate_word(flipped, 5) == AlgebraElement.from_diagram(d.star())}")
