"""Compressed memory policies on synthetic slot data.

A segment compresses into s slots (2 x L x d numbers each). The memory
then either grows by concatenation, stays fixed under a running mean, or
stays fixed under an exponential moving average. This demo shows the
growth laws and the update algebra with small hand-checkable tensors.
"""

import numpy as np

from ccm.memory import EMA_A, ContextMemory
from ccm.model import KVLayout


def slot(value):
    arr = np.full((2, 1, 4), float(value))
    return KVLayout(arr.copy(), arr.copy())


def main():
    print("=== concat: linear growth, order preserved ===")
    mem = ContextMemory("concat")
    for t in range(1, 6):
        mem = mem.updated(slot(t))
        print(f"t={t}: entries={mem.entry_count}  "
              f"slot values={[float(k) for k in mem.entries.keys[0, :, 0]]}")

    print("\n=== merge: fixed size, running arithmetic mean ===")
    mem = ContextMemory("merge")
    values = [3.0, 6.0, 9.0, 2.0]
    for t, v in enumerate(values, start=1):
        mem = mem.updated(slot(v))
        state = mem.entries.keys[0, 0, 0]
        print(f"t={t}: entries={mem.entry_count}  state={state:.3f}  "
              f"(mean of {values[:t]} = {np.mean(values[:t]):.3f})")

    print(f"\n=== ema(a={EMA_A}): recency-weighted, a_1 = 1 ===")
    mem = ContextMemory("ema")
    for t, v in enumerate([4.0, 0.0, 8.0], start=1):
        mem = mem.updated(slot(v))
        print(f"t={t}: state={mem.entries.keys[0, 0, 0]:.3f}")
    print("closed form: 0.25*4 + 0.25*0 + 0.5*8 =",
          0.25 * 4 + 0.25 * 0 + 0.5 * 8)


if __name__ == "__main__":
    main()
