from .config import AssetConfig, ScenarioConfig, load_config
from .engine import Engine, RunArtifacts

__all__ = [
    "AssetConfig",
    "ScenarioConfig",
    "load_config",
    "Engine",
    "RunArtifacts",
]
