#include "util/argparse.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/logging.h"

namespace elda {
namespace util {
namespace {

const char* TypeName(int type) {
  switch (type) {
    case 0: return "string";
    case 1: return "int";
    case 2: return "double";
    default: return "bool";
  }
}

bool ParseInt(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseBool(const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::Register(const std::string& name, Type type, void* dest,
                               const std::string& help,
                               std::string default_repr) {
  ELDA_CHECK(Find(name) == nullptr) << "duplicate flag --" << name;
  ELDA_CHECK(dest != nullptr);
  Flag flag;
  flag.name = name;
  flag.type = type;
  flag.dest = dest;
  flag.help = help;
  flag.default_repr = std::move(default_repr);
  flags_.push_back(std::move(flag));
  return *this;
}

ArgParser& ArgParser::String(const std::string& name, std::string* value,
                             const std::string& help) {
  return Register(name, Type::kString, value, help,
                  value->empty() ? "\"\"" : *value);
}

ArgParser& ArgParser::Int(const std::string& name, int64_t* value,
                          const std::string& help,
                          std::optional<int64_t> min) {
  Register(name, Type::kInt, value, help, std::to_string(*value));
  flags_.back().min = min;
  return *this;
}

ArgParser& ArgParser::Double(const std::string& name, double* value,
                             const std::string& help) {
  return Register(name, Type::kDouble, value, help, std::to_string(*value));
}

ArgParser& ArgParser::Bool(const std::string& name, bool* value,
                           const std::string& help) {
  return Register(name, Type::kBool, value, help, *value ? "true" : "false");
}

ArgParser::Flag* ArgParser::Find(const std::string& name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

const ArgParser::Flag* ArgParser::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool ArgParser::Assign(Flag* flag, const std::string& value,
                       std::string* error) {
  switch (flag->type) {
    case Type::kString:
      *static_cast<std::string*>(flag->dest) = value;
      return true;
    case Type::kInt: {
      int64_t v = 0;
      if (!ParseInt(value, &v)) break;
      if (flag->min && v < *flag->min) {
        *error = "--" + flag->name + " must be at least " +
                 std::to_string(*flag->min) + ", got " + value;
        return false;
      }
      *static_cast<int64_t*>(flag->dest) = v;
      return true;
    }
    case Type::kDouble:
      if (ParseDouble(value, static_cast<double*>(flag->dest))) return true;
      break;
    case Type::kBool:
      if (ParseBool(value, static_cast<bool*>(flag->dest))) return true;
      break;
  }
  *error = "invalid " + std::string(TypeName(static_cast<int>(flag->type))) +
           " value '" + value + "' for --" + flag->name;
  return false;
}

std::string ArgParser::Usage() const {
  std::string usage = "usage: " + program_ + " [flags]\n";
  if (!description_.empty()) usage += description_ + "\n";
  usage += "\nflags:\n";
  for (const Flag& flag : flags_) {
    std::string line = "  --" + flag.name;
    if (flag.type != Type::kBool) {
      line += " <" + std::string(TypeName(static_cast<int>(flag.type))) + ">";
    }
    while (line.size() < 28) line.push_back(' ');
    line += flag.help + " (default: " + flag.default_repr;
    if (flag.min) line += ", min: " + std::to_string(*flag.min);
    line += ")\n";
    usage += line;
  }
  std::string help_line = "  --help";
  while (help_line.size() < 28) help_line.push_back(' ');
  usage += help_line + "print this message and exit\n";
  return usage;
}

void ArgParser::Parse(int argc, char** argv) {
  auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%s: %s\n\n%s", program_.c_str(), message.c_str(),
                 Usage().c_str());
    std::exit(2);
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stdout, "%s", Usage().c_str());
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      fail("unexpected argument '" + arg + "'");
    }
    arg.erase(0, 2);

    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }

    Flag* flag = Find(arg);
    if (flag == nullptr) fail("unknown flag --" + arg);

    if (!has_value) {
      if (flag->type == Type::kBool) {
        // Bare `--switch` sets true; an explicit value still works via
        // `--switch=false`.
        *static_cast<bool*>(flag->dest) = true;
        flag->provided = true;
        continue;
      }
      if (i + 1 >= argc) fail("flag --" + arg + " expects a value");
      value = argv[++i];
    }

    std::string error;
    if (!Assign(flag, value, &error)) fail(error);
    flag->provided = true;
  }
}

bool ArgParser::Provided(const std::string& name) const {
  const Flag* flag = Find(name);
  return flag != nullptr && flag->provided;
}

}  // namespace util
}  // namespace elda
