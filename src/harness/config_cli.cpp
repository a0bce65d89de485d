#include "harness/config_cli.hpp"

#include "common/env.hpp"

namespace bacp::harness {

std::pair<std::string, std::string> value_flag(const EnvFlag& knob) {
  std::string help = knob.help;
  if (knob.env[0] != '\0') {
    help += " (env ";
    help += knob.env;
    help += ")";
  }
  return {std::string(knob.flag) + "=", std::move(help)};
}

std::pair<std::string, std::string> bool_flag(const char* flag, const char* help) {
  return {flag, help};
}

std::uint64_t read_u64(const common::ArgParser& parser, const EnvFlag& knob,
                       std::uint64_t fallback) {
  const std::uint64_t backed =
      knob.env[0] != '\0' ? common::env_u64(knob.env, fallback) : fallback;
  return parser.get_u64_or_fail(knob.flag, backed);
}

double read_double(const common::ArgParser& parser, const EnvFlag& knob, double fallback) {
  const double backed =
      knob.env[0] != '\0' ? common::env_double(knob.env, fallback) : fallback;
  return parser.get_double_or_fail(knob.flag, backed);
}

std::string read_string(const common::ArgParser& parser, const EnvFlag& knob,
                        const std::string& fallback) {
  const std::string backed =
      knob.env[0] != '\0' ? common::env_string(knob.env, fallback) : fallback;
  return parser.get(knob.flag, backed);
}

std::size_t read_threads(const common::ArgParser& parser, std::size_t fallback) {
  return static_cast<std::size_t>(read_u64(parser, kThreadsKnob, fallback));
}

}  // namespace bacp::harness
