"""Command-line surface: simulate, reconstruct, sweep.

Exit codes: 0 ok, 1 I/O failure, 2 invalid input, 3 no target found.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click

from . import sceneio
from .acquisition import (
    calibration_offset_s,
    simulate_background,
    simulate_frames,
    simulate_histogram,
)
from .localization import InfeasibleTimeError, TooManyTargetsError, backproject
from .processing import TimeWindow, estimate_background_median
from .studies import (
    PipelineError,
    reconstruct_from_histograms,
    run_baseline_sweep,
    simulate_scene,
)

EXIT_IO = 1
EXIT_INVALID = 2
EXIT_NO_TARGET = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_or_exit(load, path):
    try:
        return load(path)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    except (sceneio.SceneFormatError, ValueError) as exc:
        _fail(EXIT_INVALID, str(exc))


@click.group()
def main():
    """Hidden-target localization from single-photon flight-time histograms."""


@main.command()
@click.argument("scene_file", type=click.Path())
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the acquisition seed.")
@click.option("--frames", type=int, default=1, show_default=True,
              help="Signal frames per pixel (several enable a median background).")
@click.option("--no-lambertian", is_flag=True, help="Disable wall-angle factors.")
def simulate(scene_file, out, seed, frames, no_lambertian):
    """Simulate signal and background histograms for SCENE_FILE."""
    scene, params, _grid = _load_or_exit(sceneio.load_scene, scene_file)
    if seed is not None:
        params = dataclasses.replace(params, rng_seed=seed)
    if no_lambertian:
        params = dataclasses.replace(params, lambertian=False)
    if frames < 1:
        _fail(EXIT_INVALID, "--frames must be >= 1")

    out_dir = Path(out)
    outputs = []
    for i in range(scene.num_pixels):
        if frames == 1:
            outputs.append(f"pixel{i:02d}_signal.csv")
        else:
            outputs += [f"pixel{i:02d}_frame{k:02d}.csv" for k in range(frames)]
        outputs.append(f"pixel{i:02d}_background.csv")
    try:
        with sceneio.run_manifest(out_dir, scene_file, params, outputs):
            for i in range(scene.num_pixels):
                if frames == 1:
                    sceneio.write_histogram_csv(
                        out_dir / f"pixel{i:02d}_signal.csv", simulate_histogram(scene, i, params)
                    )
                else:
                    for k, frame in enumerate(simulate_frames(scene, i, params, frames)):
                        sceneio.write_histogram_csv(
                            out_dir / f"pixel{i:02d}_frame{k:02d}.csv", frame
                        )
                sceneio.write_histogram_csv(
                    out_dir / f"pixel{i:02d}_background.csv", simulate_background(scene, i, params)
                )
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        _fail(EXIT_INVALID, str(exc))
    click.echo(f"wrote {len(outputs)} histogram files to {out_dir}")


def _read_pixel_histograms(hist_dir: Path, num_pixels: int, background_mode: str):
    """Collect (signal, background) per pixel from a simulate output directory."""
    signals, backgrounds = [], []
    for i in range(num_pixels):
        single = hist_dir / f"pixel{i:02d}_signal.csv"
        frame_files = sorted(hist_dir.glob(f"pixel{i:02d}_frame*.csv"))
        if single.exists():
            frames = [sceneio.read_histogram_csv(single)]
        elif frame_files:
            frames = [sceneio.read_histogram_csv(f) for f in frame_files]
        else:
            _fail(EXIT_INVALID, f"no signal histogram for pixel {i} in {hist_dir}")
        bg_file = hist_dir / f"pixel{i:02d}_background.csv"
        mode = background_mode
        if mode == "auto":
            mode = "file" if bg_file.exists() else "median"
        if mode == "file":
            if not bg_file.exists():
                _fail(EXIT_INVALID, f"missing background file {bg_file}")
            background = sceneio.read_histogram_csv(bg_file)
        else:
            if len(frames) < 3:
                _fail(EXIT_INVALID,
                      f"median background needs >= 3 signal frames for pixel {i}, "
                      f"got {len(frames)}")
            background = estimate_background_median(frames)
        signals.append(frames[0])
        backgrounds.append(background)
    return signals, backgrounds


@main.command()
@click.argument("scene_file", type=click.Path())
@click.option("--hist-dir", type=click.Path(), default=None,
              help="Directory of simulate output; omit to simulate in-process.")
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the acquisition seed.")
@click.option("--grid-res", type=float, default=None, help="Override grid resolution (m).")
@click.option("--targets", type=int, default=1, show_default=True, help="Targets to resolve.")
@click.option("--background", type=click.Choice(["auto", "file", "median"]), default="auto",
              show_default=True, help="Background source when reading histograms.")
@click.option("--window", type=str, default=None,
              help="Crop window 'start,end' in seconds (default: derived from the grid).")
@click.option("--maps", "write_maps", is_flag=True, help="Also write probability-map CSVs.")
@click.option("--no-lambertian", is_flag=True, help="Disable wall-angle factors.")
def reconstruct(scene_file, hist_dir, out, seed, grid_res, targets, background,
                window, write_maps, no_lambertian):
    """Localize hidden targets from histograms (read from --hist-dir or simulated)."""
    scene, params, grid = _load_or_exit(sceneio.load_scene, scene_file)
    if seed is not None:
        params = dataclasses.replace(params, rng_seed=seed)
    if no_lambertian:
        params = dataclasses.replace(params, lambertian=False)
    if grid_res is not None:
        try:
            grid = dataclasses.replace(grid, resolution=grid_res)
        except ValueError as exc:
            _fail(EXIT_INVALID, str(exc))

    win = None
    if window is not None:
        try:
            start, end = (float(v) for v in window.split(","))
            win = TimeWindow(start, end)
        except ValueError as exc:
            _fail(EXIT_INVALID, f"bad --window: {exc}")

    try:
        if hist_dir is not None:
            signals, backgrounds = _read_pixel_histograms(
                Path(hist_dir), scene.num_pixels, background
            )
        else:
            signals, backgrounds = simulate_scene(scene, params)
        result = reconstruct_from_histograms(
            signals, backgrounds, scene.laser_spot, list(scene.pixels), grid, params,
            offset_s=calibration_offset_s(scene, params),
            k_targets=targets, window=win,
        )
    except TooManyTargetsError as exc:
        _fail(EXIT_INVALID, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    except (PipelineError, ValueError) as exc:
        _fail(EXIT_INVALID, str(exc))

    # Every map is built before the manifest lists it; a peak whose c*t
    # cannot reach its pixel has no ellipse, so it gets no map (association
    # skips it too).
    maps = {}
    if write_maps:
        for track, fused in zip(result.tracks, result.fused_maps):
            maps[f"fused_map_{track.target_label}.csv"] = fused
        for pix, peaks in zip(result.used_pixels, result.peaks_per_pixel):
            for j, peak in enumerate(peaks):
                try:
                    pmap = backproject(peak, scene.laser_spot, scene.pixels[pix], grid)
                except InfeasibleTimeError:
                    continue
                maps[f"pixel{pix:02d}_peak{j}_map.csv"] = pmap
    out_dir = Path(out)
    try:
        with sceneio.run_manifest(out_dir, scene_file, params, ["tracks.json", *maps]):
            sceneio.write_tracks_json(out_dir / "tracks.json", result.tracks,
                                      result.notes, result.status)
            for name, pmap in maps.items():
                sceneio.write_map_csv(out_dir / name, pmap)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))

    if not result.tracks:
        click.echo("no target found", err=True)
        for note in result.notes:
            click.echo(f"  {note}", err=True)
        sys.exit(EXIT_NO_TARGET)
    for t in result.tracks:
        click.echo(
            f"{t.target_label}: x={t.position[0]:.3f} m y={t.position[1]:.3f} m "
            f"(sigma {t.sigma_x:.3f}, {t.sigma_y:.3f})"
        )


@main.command()
@click.argument("config_file", type=click.Path())
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the master seed.")
def sweep(config_file, out, seed):
    """Run the two-detector baseline sweep described by CONFIG_FILE."""
    config = _load_or_exit(sceneio.load_sweep_config, config_file)
    if seed is not None:
        config = dataclasses.replace(
            config, acquisition=dataclasses.replace(config.acquisition, rng_seed=seed)
        )
    out_dir = Path(out)
    try:
        with sceneio.run_manifest(out_dir, config_file, config.acquisition, ["sweep.csv"]):
            result = run_baseline_sweep(config)
            sceneio.write_sweep_csv(out_dir / "sweep.csv", result)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    click.echo(f"wrote {len(result.rows)} sweep rows to {out_dir / 'sweep.csv'}")


if __name__ == "__main__":
    main()
