"""beatmix: beat-synchronous mixup augmentation and evaluation for music corpora.

The package turns a directory of WAV files into tempo- and downbeat-annotated
training material, produces mixed clips either directly in audio or through a
linear latent codec, and scores embedding sets with the usual generative-audio
metrics (Frechet distance, inception score, paired KL, text-audio similarity,
nearest-neighbor similarity ratios).
"""

__version__ = "0.1.0"
