// Parameter checkpointing: save/load a module's named parameters to a
// binary container so a trained ELDA deployment can persist its model
// between the offline-training and online-prediction phases of the paper's
// Fig. 2 workflow.
//
// Format v2 wraps the parameter blob in the crash-safe sectioned container
// of health/ckpt_io.h (atomic temp-file + rename writes, per-section CRC32
// verified at load), under a single "params" section:
//
//   blob: uint64 count |
//         per parameter: uint32 name_len | name bytes |
//                        uint32 rank | int64 dims[rank] | float data[volume]
//
// Format v1 (magic "ELDA" | uint32 1 | blob, no checksums, non-atomic
// write) is still read for backward compatibility with old checkpoints.
//
// Loading is strict: the target module must declare exactly the same
// parameter names and shapes (architecture must match the checkpoint), and
// dims read from the file are validated (positive, capped volume) before any
// allocation so a corrupt file cannot trigger a huge or negative allocation.

#ifndef ELDA_NN_SERIALIZE_H_
#define ELDA_NN_SERIALIZE_H_

#include <cstdint>
#include <string>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/byte_codec.h"

namespace elda {
namespace nn {

// Writes all named parameters of `module` to `path` (format v2, atomic).
// Returns false (with a message in `error` if non-null) on I/O failure.
bool SaveParameters(const Module& module, const std::string& path,
                    std::string* error = nullptr);

// Reads a checkpoint written by SaveParameters (v2) or by the legacy v1
// writer into `module`. Returns false on I/O failure, checksum mismatch,
// unknown/missing parameters, or shape mismatches.
bool LoadParameters(Module* module, const std::string& path,
                    std::string* error = nullptr);

// The raw parameter blob used inside checkpoints (see format above). The
// trainer's full-run checkpoints embed model snapshots with these.
std::string EncodeParameters(const Module& module);
bool DecodeParameters(Module* module, const std::string& blob,
                      std::string* error = nullptr);

// The shaped-tensor codec shared by the parameter blob and the train
// checkpoint's tensor lists: uint32 rank | int64 dims[rank] | float
// data[volume]. Decoding rejects a rank above kMaxTensorRank, a
// non-positive dim and a volume above kMaxTensorElements (2^28 floats =
// 1 GiB), and allocates only once the data bytes are known to be present,
// so a corrupt file cannot drive a huge or negative allocation. `what`
// names the tensor in the error message.
inline constexpr uint32_t kMaxTensorRank = 8;
inline constexpr int64_t kMaxTensorElements = int64_t{1} << 28;
void PutShapedTensor(util::ByteWriter* writer, const Tensor& tensor);
bool GetShapedTensor(util::ByteReader* reader, Tensor* tensor,
                     const std::string& what, std::string* error);

}  // namespace nn
}  // namespace elda

#endif  // ELDA_NN_SERIALIZE_H_
