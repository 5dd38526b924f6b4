#include "util/byte_codec.h"

namespace elda {
namespace util {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace util
}  // namespace elda
