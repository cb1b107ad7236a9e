"""Write behaviour_lock.npz: reference outputs of the enhancement path.

Run from the repository root with the source tree to be locked on the
import path:

    PYTHONPATH=src python tests/data/make_behaviour_lock.py

The fixture holds enhance_dd outputs for every gain rule on one seeded
noisy input, gain_mmse_stsa on a (xi, gamma) grid whose nu = xi gamma /
(1 + xi) crosses 30 and 700, and unmap_xi on a grid that includes the
1e-7 clamps.  tests/test_behaviour_lock.py compares the current code
against it.
"""

from pathlib import Path

import numpy as np

from sefront.dd import enhance_dd
from sefront.gain import GainRule, gain_mmse_stsa
from sefront.snr import XiStats, unmap_xi

SR = 16000
OUT = Path(__file__).with_name("behaviour_lock.npz")


def noisy_input(seed: int = 7, seconds: float = 0.75) -> np.ndarray:
    """Gated harmonic tone plus white noise at about 5 dB SNR."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * SR)) / SR
    f0 = rng.uniform(120.0, 250.0)
    voice = sum(np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi)) / k
                for k in range(1, 5))
    voice *= (np.sin(2 * np.pi * 3.0 * t) > 0) * (t > 0.15)
    voice *= 0.3 / np.max(np.abs(voice))
    noise = rng.standard_normal(t.size)
    noise *= np.sqrt(np.mean(voice**2) / np.mean(noise**2) / 10 ** 0.5)
    return voice + noise


def gain_grid():
    """(xi, gamma) pairs; xi = 1 rows put nu = gamma / 2 across 30 and 700."""
    xi = np.logspace(-3, 3, 25)
    gamma = np.concatenate([
        np.logspace(-2, 3.5, 40),
        [59.98, 60.0, 60.02, 1399.9, 1400.0, 1400.1],
    ])
    xi_g, gamma_g = np.meshgrid(np.append(xi, 1.0), gamma, indexing="ij")
    return xi_g, gamma_g


def unmap_grid():
    bar = np.concatenate([
        [0.0, 1e-9, 1e-7, 2e-7, 1e-4],
        np.linspace(0.01, 0.99, 41),
        [1 - 1e-4, 1 - 2e-7, 1 - 1e-7, 1 - 1e-9, 1.0],
    ])
    stats = XiStats(np.array([-12.0, -3.0, 0.0, 4.5, 15.0]),
                    np.array([0.1, 2.0, 7.5, 11.0, 20.0]))
    return np.repeat(bar[:, None], stats.n_bins, axis=1), stats


def main() -> None:
    noisy = noisy_input()
    xi, gamma = gain_grid()
    bar, stats = unmap_grid()
    arrays = {"noisy": noisy, "gain_xi": xi, "gain_gamma": gamma,
              "gain_mmse_stsa": gain_mmse_stsa(xi, gamma), "unmap_bar": bar,
              "unmap_mu_db": stats.mu_db, "unmap_sigma_db": stats.sigma_db,
              "unmap_xi": unmap_xi(bar, stats)}
    for rule in GainRule:
        arrays[f"enhance_dd_{rule.value}"] = enhance_dd(noisy, rule).samples
    np.savez_compressed(OUT, **arrays)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
