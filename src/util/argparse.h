// Declarative command-line parsing for the bench and example binaries.
// Flags register a typed destination plus help text up front, so every
// binary gets a `--help` usage page for free, values are validated at
// parse time (a malformed integer is a usage error, not an uncaught
// exception), and the registration site is the single source of defaults.
//
//   std::string model = "GRU";
//   int64_t sessions = 100000;
//   bool verbose = false;
//   util::ArgParser parser("bench_serve_load", "Streaming load generator.");
//   parser.String("model", &model, "registry model to serve")
//         .Int("sessions", &sessions, "resident sessions to admit")
//         .Bool("verbose", &verbose, "per-phase progress");
//   parser.Parse(argc, argv);
//
// Accepted forms: `--name value`, `--name=value`, bare `--switch` for
// bools. `--help` prints the usage page and exits 0; unknown flags,
// malformed values and integers below a flag's minimum print an error plus
// usage and exit 2.

#ifndef ELDA_UTIL_ARGPARSE_H_
#define ELDA_UTIL_ARGPARSE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace elda {
namespace util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  // Registration. The destination's current value is the default shown in
  // --help; Parse overwrites it only when the flag is given. Returns *this
  // for chaining. An Int `min` (shown in --help) rejects smaller values
  // given on the command line; the default itself is not checked, so a
  // sentinel such as -1 can stand for "derive from other flags".
  ArgParser& String(const std::string& name, std::string* value,
                    const std::string& help);
  ArgParser& Int(const std::string& name, int64_t* value,
                 const std::string& help,
                 std::optional<int64_t> min = std::nullopt);
  ArgParser& Double(const std::string& name, double* value,
                    const std::string& help);
  ArgParser& Bool(const std::string& name, bool* value,
                  const std::string& help);

  // Parses argv; exits on --help (0) or usage errors (2).
  void Parse(int argc, char** argv);

  // True when the flag was given explicitly on the parsed command line.
  bool Provided(const std::string& name) const;

  std::string Usage() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    std::string name;
    Type type;
    void* dest;
    std::string help;
    std::string default_repr;
    std::optional<int64_t> min;  // kInt only
    bool provided = false;
  };

  ArgParser& Register(const std::string& name, Type type, void* dest,
                      const std::string& help, std::string default_repr);
  Flag* Find(const std::string& name);
  const Flag* Find(const std::string& name) const;
  // Assigns `value` to the flag's destination; returns false (with a
  // message in *error) when the value does not parse as the flag's type or
  // is below its minimum.
  bool Assign(Flag* flag, const std::string& value, std::string* error);

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;
};

}  // namespace util
}  // namespace elda

#endif  // ELDA_UTIL_ARGPARSE_H_
