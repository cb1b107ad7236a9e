"""Speech enhancement front-end built around a priori SNR estimation."""

from .dsp import (
    AnalysisConfig,
    AudioSignal,
    DEFAULT_CONFIG,
    SpectroGram,
    hamming_window,
    istft,
    stft,
)
from .snr import (
    XiStats,
    estimate_stats,
    load_stats,
    map_xi,
    oracle_xi,
    save_stats,
    unmap_xi,
    xi_to_db,
)
from .gain import GainRule, gain_mmse_stsa, gain_srwf, gain_wiener
from .dd import DdState, NoiseTracker, dd_xi, enhance, track_noise
from .rnn import (
    NetworkParams,
    backward,
    forward,
    init_network,
    load_network,
    loss_cross_entropy,
    save_network,
)
from .train import Adam, TrainConfig, infer_xi, train
from .corpus import (
    Manifest,
    MixSpec,
    build_test_manifest,
    load_manifest,
    load_wav,
    mix_at_snr,
    save_manifest,
    save_wav,
)
from .features import (
    Transcript,
    mfcc,
    score_manifest,
    segmental_snr,
    wer,
    write_score_csv,
)

__version__ = "0.1.0"
