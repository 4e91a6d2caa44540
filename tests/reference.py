"""Independent reference implementations used as test oracles.

Nothing here shares code with the package beyond plain numpy: the max-min
reference is a random-restart coordinate ascent with per-element grid
candidates, the delay-search oracle recomputes every candidate spectrum with
a direct FFT and fits with numpy's own weighted polyfit. The batched
delay-search reference is the package's kernel as it stood with
``np.unwrap`` and one sliding-DFT call per candidate step, kept to pin the
current kernel byte for byte. The whole-slot monostatic capture and the
column-stacked localization features are the package's as they stood
before echoes were applied only on the signal spans and feature rows were
built per beam, kept to pin the current code byte for byte. So are the
whole-slot user downlink and the per-symbol user CSI and scoring loops, as
they stood before users captured through the sensing echo sum and the
user receiver transformed each slot once, the DMRS pre-distortion as
it stood before the beam plan carried its amplitudes, and a beam's received
power as it stood before the delay search summed it for all beams at once.
"""

import math

import numpy as np


def steering(n, angle, spacing=0.5):
    return np.exp(1j * 2 * np.pi * spacing * np.arange(n) * math.sin(angle))


def min_user_snr(w, s_users, gammas):
    return float(np.min(gammas * np.abs(s_users @ w) ** 2))


def _feasible(w, anchor, eps):
    d = w - anchor
    mag = np.abs(d)
    w = np.where(mag > eps, anchor + d * eps / np.maximum(mag, 1e-300), w)
    a = np.abs(w)
    return np.where(a > 1, w / np.maximum(a, 1e-300), w)


def reference_max_min(
    user_angles,
    gammas,
    sensing_angle,
    n_elements,
    eps,
    n_restarts=8,
    passes=12,
    seed=0,
):
    """Random-restart per-element coordinate ascent on the minimum user SNR.

    Each pass sweeps the elements; each element tries a polar grid of
    candidate values inside the feasible set (radius-eps disk around the
    conjugate anchor intersected with the unit disk) and keeps the best.
    Returns the best weights and objective over all restarts.
    """
    s_users = np.array([steering(n_elements, a) for a in user_angles])
    gammas = np.asarray(gammas, dtype=float)
    anchor = np.conj(steering(n_elements, sensing_angle))
    rng = np.random.default_rng(seed)

    offsets = [0.0]
    for radius in (0.33, 0.66, 1.0):
        for phase in np.linspace(0, 2 * np.pi, 12, endpoint=False):
            offsets.append(radius * np.exp(1j * phase))
    offsets = np.array(offsets)

    best_val, best_w = -1.0, None
    for restart in range(n_restarts):
        if restart == 0:
            w = anchor.copy()
        else:
            jitter = rng.standard_normal(n_elements) + 1j * rng.standard_normal(n_elements)
            w = _feasible(anchor + eps * jitter / np.max(np.abs(jitter)), anchor, eps)
        inner = s_users @ w
        for _ in range(passes):
            improved = False
            for n in range(n_elements):
                cands = anchor[n] + eps * offsets
                mag = np.abs(cands)
                cands = np.where(mag > 1, cands / np.maximum(mag, 1e-300), cands)
                # inner products if element n takes each candidate value
                trial = inner[:, None] + np.outer(s_users[:, n], cands - w[n])
                vals = np.min(gammas[:, None] * np.abs(trial) ** 2, axis=0)
                k = int(np.argmax(vals))
                if vals[k] > min_user_snr(w, s_users, gammas) * (1 + 1e-12):
                    inner = trial[:, k]
                    w = w.copy()
                    w[n] = cands[k]
                    improved = True
            if not improved:
                break
        val = min_user_snr(w, s_users, gammas)
        if val > best_val:
            best_val, best_w = val, w
    return best_w, best_val


def brute_force_delay_search(rx, tx_window_start, window_len, num_candidates,
                             factor=1.0):
    """Direct-FFT delay scan with a numpy polyfit line on unwrapped phases.

    Mirrors the contract: weights are the transmitted magnitudes, bins at or
    below 30% of the window RMS are dropped, the weighted MSE decides, ties
    break toward the smaller delay.
    """
    tx_win = rx["tx"][tx_window_start : tx_window_start + window_len]
    x_f = np.fft.fft(tx_win)
    rms = math.sqrt(float(np.mean(np.abs(x_f) ** 2)))
    valid = np.abs(x_f) > max(1e-12, 0.3 * rms)
    k = np.flatnonzero(valid)
    weights = np.abs(factor * x_f[k])
    best = None
    for dn in range(num_candidates):
        start = tx_window_start + dn
        win = np.zeros(window_len, dtype=complex)
        seg = rx["rx"][start : start + window_len]
        win[: len(seg)] = seg
        y_f = np.fft.fft(win)
        h = y_f[k] / (factor * x_f[k])
        phases = np.unwrap(np.angle(h))
        coeffs = np.polyfit(k.astype(float), phases, 1, w=weights)
        resid = phases - np.polyval(coeffs, k)
        mse = float(np.sum((weights * resid) ** 2) / np.sum(weights**2))
        if best is None or mse < best[1]:
            best = (dn, mse, coeffs)
    return best


def stepwise_delay_search(rx_symbol, tx_symbol, sub_len, num_beams, num_candidates,
                          factors=None):
    """(csi, valid, slope, intercept, mse) of every (candidate, beam) of one symbol.

    The batched kernel with each candidate's spectra from a per-step
    sliding-DFT update (twiddle rebuilt per step) and phases from
    ``np.unwrap``; usable bins compacted to the front of each beam and padded
    with the last usable bin at zero weight. Bins at or below 30% of the
    window RMS (or 1e-12) are invalid.
    """
    def step(spectrum, y_in, y_out):
        n = spectrum.shape[-1]
        twiddle = np.exp(2j * np.pi * np.arange(n) / n)
        return (spectrum + np.asarray(y_in - y_out)[..., None]) * twiddle

    length, n_cand, n_beams = sub_len, num_candidates, num_beams
    offsets = np.arange(length)
    starts = np.arange(n_beams) * length
    x_f = np.fft.fft(tx_symbol[starts[:, None] + offsets], axis=1)
    if factors is None:
        factors = np.ones(n_beams, dtype=complex)
    weights = np.abs(factors[:, None] * x_f)
    mag = np.abs(x_f)
    rms = np.sqrt(np.mean(mag**2, axis=1, keepdims=True))
    valid = mag > np.maximum(1e-12, 0.3 * rms)
    usable = valid & (weights > 0)
    counts = usable.sum(axis=1)

    rxp = np.zeros(int(starts.max()) + n_cand + length, dtype=complex)
    rxp[: min(len(rx_symbol), len(rxp))] = rx_symbol[: len(rxp)]
    y_f = np.empty((n_cand, n_beams, length), dtype=complex)
    y_f[0] = np.fft.fft(rxp[starts[:, None] + offsets], axis=1)
    for dn in range(1, n_cand):
        y_f[dn] = step(y_f[dn - 1], rxp[starts + dn - 1 + length], rxp[starts + dn - 1])
    csi = np.zeros_like(y_f)
    np.divide(y_f, factors[:, None] * x_f, out=csi, where=valid)

    rows = np.arange(n_beams)[:, None]
    width = int(counts.max())
    packed = np.argsort(~usable, axis=1, kind="stable")[:, :width]
    pad = np.arange(width) >= counts[:, None]
    bins = np.where(pad, np.take_along_axis(packed, counts[:, None] - 1, axis=1), packed)
    w2 = np.where(pad, 0.0, weights[rows, bins]) ** 2
    k = bins.astype(float)
    phases = np.unwrap(np.angle(csi[:, rows, bins]), axis=-1)
    s_w = np.sum(w2, axis=-1)
    s_k = np.sum(w2 * k, axis=-1)
    s_kk = np.sum(w2 * k * k, axis=-1)
    s_y = np.sum(w2 * phases, axis=-1)
    s_ky = np.sum(w2 * k * phases, axis=-1)
    denom = s_w * s_kk - s_k * s_k
    flat = denom <= 1e-30 * np.maximum(s_w * s_kk, 1e-300)
    slope = np.where(flat, 0.0, (s_w * s_ky - s_k * s_y) / np.where(flat, 1.0, denom))
    norm = np.where(s_w > 0, s_w, np.inf)
    intercept = (s_y - slope * s_k) / norm
    resid = phases - (slope[..., None] * k + intercept[..., None])
    mse = np.sum(w2 * resid**2, axis=-1) / norm
    return csi, valid, slope, intercept, mse


def whole_slot_monostatic(samples, echoes, scene, seed):
    """The monostatic capture with every echo delayed and added over the whole slot.

    ``echoes`` carry ``coefficient``, ``rx_amp``, per-sample ``tx_amp`` and
    ``delay``; the noise is the whole-slot draw from ``seed``, real parts
    first.
    """
    n = len(samples)
    out = np.zeros(n, dtype=complex)
    for echo in echoes:
        delayed = np.zeros(n, dtype=complex)
        if echo.delay < n:
            delayed[echo.delay:] = (echo.tx_amp * samples)[: n - echo.delay]
        out += echo.coefficient * echo.rx_amp * delayed
    if scene.self_interference_inr_db is not None:
        mean_power = float(np.mean(np.abs(samples) ** 2))
        if mean_power > 0:
            leak_power = scene.noise_power * 10.0 ** (scene.self_interference_inr_db / 10.0)
            out += math.sqrt(leak_power / mean_power) * samples
    rng = np.random.default_rng(seed)
    noise = np.empty(n, dtype=complex)
    noise.real = rng.standard_normal(n)
    noise.imag = rng.standard_normal(n)
    noise *= math.sqrt(scene.noise_power / 2.0)
    return out + noise


def beam_power(csi, valid):
    """A beam's received power: |H|^2 summed over its usable bins, linear."""
    return float(np.sum(np.abs(csi[valid]) ** 2))


def column_stacked_features(results, sub_len):
    """Per beam (power dB, total slope, mse), built column by column and interleaved."""
    valid = np.array([r.valid for r in results])
    squares = np.abs(np.array([r.csi for r in results])[valid]) ** 2
    ends = np.cumsum(valid.sum(axis=1)).tolist()
    power_db = [
        10.0 * math.log10(float(squares[start:end].sum()) + 1e-30)
        for start, end in zip([0, *ends], ends)
    ]
    delays = np.array([r.best_delay for r in results])
    total_slope = np.array([r.slope for r in results]) - 2.0 * np.pi * delays / sub_len
    return np.column_stack((power_db, total_slope, [r.mse for r in results])).ravel()


def whole_slot_downlink(samples, tx_amp, coefficient, delay, noise_power, seed):
    """One user's capture: the whole slot scaled by ``tx_amp``, delayed, faded, plus noise.

    The noise is the whole-slot draw from ``seed``, real parts first.
    """
    n = len(samples)
    delayed = np.zeros(n, dtype=complex)
    if delay == 0:
        delayed[:] = tx_amp * samples
    elif delay < n:
        delayed[delay:] = (tx_amp * samples)[: n - delay]
    rng = np.random.default_rng(seed)
    noise = np.empty(n, dtype=complex)
    noise.real = rng.standard_normal(n)
    noise.imag = rng.standard_normal(n)
    noise *= math.sqrt(noise_power / 2.0)
    return coefficient * delayed + noise


def per_symbol_user_csi(rx_samples, ref_samples, fft_size, cp_length, dmrs_positions, bins):
    """Y[k]/X[k] on ``bins`` of each DMRS body, one FFT per body, summed in slot order."""
    symbol_len = fft_size + cp_length
    acc = None
    for pos in dmrs_positions:
        body = slice(pos * symbol_len + cp_length, (pos + 1) * symbol_len)
        h = np.fft.fft(rx_samples[body])[bins] / np.fft.fft(ref_samples[body])[bins]
        acc = h if acc is None else acc + h
    return acc / len(dmrs_positions)


def per_symbol_scores(rx_grids, tx_grids, csi, data_positions, bins, levels, norm, bits_axis):
    """EVM (%), BER and bit count of the data rows, one row and one I/Q axis at a time.

    ``rx_grids`` holds one received grid per data symbol, in slot order.
    """
    def axis_index(values):
        idx = np.round((values * norm + len(levels) - 1) / 2.0).astype(int)
        return np.clip(idx, 0, len(levels) - 1)

    def bits(idx):
        codes = idx ^ (idx >> 1)
        out = np.zeros((len(idx), bits_axis), dtype=np.uint8)
        for b in range(bits_axis):
            out[:, bits_axis - 1 - b] = (codes >> b) & 1
        return out

    err_power = ref_power = 0.0
    bit_errors = bit_total = 0
    for row, pos in enumerate(data_positions):
        eq = rx_grids[row][bins] / csi
        ref = tx_grids[pos][bins]
        err_power += float(np.sum(np.abs(eq - ref) ** 2))
        ref_power += float(np.sum(np.abs(ref) ** 2))
        for part in (np.real, np.imag):
            rx_bits = bits(axis_index(part(eq)))
            bit_errors += int(np.sum(rx_bits != bits(axis_index(part(ref)))))
            bit_total += rx_bits.size
    return {
        "evm_percent": 100.0 * math.sqrt(err_power / ref_power),
        "ber": bit_errors / bit_total,
        "bits": bit_total,
    }


def predistorted_slot(samples, grids, fft_size, cp_length, dmrs_positions, sub_len, amplitude):
    """(samples, grids) of a slot with window m of every DMRS body scaled by ``amplitude[m]``.

    The amplitudes multiply as complex factors, one window at a time; each
    DMRS symbol's CP is rebuilt from its scaled body and its grid row is the
    body's FFT. Samples past the last window keep unit scaling.
    """
    samples = samples.copy()
    grids = grids.copy()
    factors = np.asarray(amplitude, dtype=float).astype(complex)
    symbol_len = fft_size + cp_length
    for pos in dmrs_positions:
        start = pos * symbol_len
        body = samples[start + cp_length : start + symbol_len].copy()
        for m, factor in enumerate(factors):
            body[m * sub_len : (m + 1) * sub_len] *= factor
        samples[start : start + symbol_len] = np.concatenate([body[fft_size - cp_length :], body])
        grids[pos] = np.fft.fft(body)
    return samples, grids
