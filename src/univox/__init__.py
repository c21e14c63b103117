"""univox: GE2E d-vector speaker verification with universal-identity poisoning."""

__version__ = "0.1.0"
