/**
 * @file
 * Deterministic checkpoint/rollback for the resilient training
 * runtime. A TrainerCheckpoint bundles every bit of mutable training
 * state — master weights, momentum buffers, PACT alphas, execution
 * precision, the model's RNG stream position, the loss-scaler state,
 * and the sentinel's accepted-loss window — so that restoring it and
 * replaying the remaining steps reproduces an uninterrupted run
 * bit-for-bit.
 *
 * The serialized form is byte-stable: fixed magic + version, explicit
 * little-endian integer layout, floats stored as their IEEE-754 bit
 * patterns (so NaN payloads and signed zeros round-trip), and a
 * length-prefixed textual mt19937_64 stream state. Two checkpoints of
 * equal state serialize to identical bytes on any host this project
 * builds on, which the tests assert directly.
 */

#ifndef RAPID_RESILIENCE_CHECKPOINT_HH
#define RAPID_RESILIENCE_CHECKPOINT_HH

#include <cstdint>
#include <vector>

#include "func/trainer.hh"
#include "resilience/loss_scaler.hh"

namespace rapid {

/** Everything needed to resume training from an exact step. */
struct TrainerCheckpoint
{
    uint64_t step = 0;        ///< optimizer steps completed
    uint64_t data_cursor = 0; ///< minibatch schedule position
    MlpState model;
    LossScalerState scaler;
    std::vector<float> loss_window; ///< sentinel accepted-loss window
};

/** Serialize @p ckpt to the byte-stable on-disk format. */
std::vector<uint8_t> serializeCheckpoint(const TrainerCheckpoint &ckpt);

/**
 * Parse bytes produced by serializeCheckpoint. Throws rapid::Error
 * (InvalidArgument) on a bad magic, unsupported version, or
 * truncated/trailing payload.
 */
TrainerCheckpoint deserializeCheckpoint(const std::vector<uint8_t> &bytes);

/** Serialized size in bytes — the checkpoint cost model's input. */
uint64_t checkpointBytes(const TrainerCheckpoint &ckpt);

} // namespace rapid

#endif // RAPID_RESILIENCE_CHECKPOINT_HH
