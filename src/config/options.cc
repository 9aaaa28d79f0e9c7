#include "config/options.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mediaworm::config {

bool
parseLong(const std::string& text, long* out)
{
    if (text.empty())
        return false;
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size() || errno == ERANGE)
        return false;
    *out = value;
    return true;
}

bool
parseFiniteDouble(const std::string& text, double* out)
{
    if (text.empty())
        return false;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(value))
        return false;
    *out = value;
    return true;
}

OptionParser::OptionParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
OptionParser::addFlag(const std::string& name, const std::string& help,
                      bool* target)
{
    Option option;
    option.name = name;
    option.help = help;
    option.isFlag = true;
    option.apply = [target](const std::string& value) -> std::string {
        if (value.empty() || value == "true" || value == "1") {
            *target = true;
        } else if (value == "false" || value == "0") {
            *target = false;
        } else {
            return "expected true/false";
        }
        return "";
    };
    options_.push_back(std::move(option));
}

void
OptionParser::addInt(const std::string& name, const std::string& help,
                     int* target, int min_value, int max_value)
{
    Option option;
    option.name = name;
    option.help = help;
    char hint[64];
    std::snprintf(hint, sizeof(hint), "<int %d..%d>", min_value,
                  max_value);
    option.valueHint = hint;
    option.apply = [target, min_value,
                    max_value](const std::string& value) -> std::string {
        long parsed = 0;
        if (!parseLong(value, &parsed))
            return "expected an integer, got '" + value + "'";
        if (parsed < min_value || parsed > max_value) {
            return "value " + value + " outside ["
                + std::to_string(min_value) + ", "
                + std::to_string(max_value) + "]";
        }
        *target = static_cast<int>(parsed);
        return "";
    };
    options_.push_back(std::move(option));
}

void
OptionParser::addDouble(const std::string& name,
                        const std::string& help, double* target,
                        double min_value, double max_value)
{
    Option option;
    option.name = name;
    option.help = help;
    char hint[64];
    std::snprintf(hint, sizeof(hint), "<float %g..%g>", min_value,
                  max_value);
    option.valueHint = hint;
    option.apply = [target, min_value,
                    max_value](const std::string& value) -> std::string {
        double parsed = 0;
        if (!parseFiniteDouble(value, &parsed))
            return "expected a finite number, got '" + value + "'";
        if (parsed < min_value || parsed > max_value) {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "value %s outside [%g, %g]", value.c_str(),
                          min_value, max_value);
            return msg;
        }
        *target = parsed;
        return "";
    };
    options_.push_back(std::move(option));
}

void
OptionParser::addString(const std::string& name,
                        const std::string& help, std::string* target)
{
    Option option;
    option.name = name;
    option.help = help;
    option.valueHint = "<string>";
    option.apply = [target](const std::string& value) -> std::string {
        *target = value;
        return "";
    };
    options_.push_back(std::move(option));
}

void
OptionParser::addChoice(const std::string& name,
                        const std::string& help,
                        std::vector<std::string> choices, int* target)
{
    Option option;
    option.name = name;
    option.help = help;
    std::string hint = "<";
    for (std::size_t i = 0; i < choices.size(); ++i) {
        if (i > 0)
            hint += "|";
        hint += choices[i];
    }
    hint += ">";
    option.valueHint = hint;
    option.apply = [target, choices = std::move(choices)](
                       const std::string& value) -> std::string {
        const auto it =
            std::find(choices.begin(), choices.end(), value);
        if (it == choices.end())
            return "unknown choice '" + value + "'";
        *target = static_cast<int>(it - choices.begin());
        return "";
    };
    options_.push_back(std::move(option));
}

const OptionParser::Option*
OptionParser::find(const std::string& name) const
{
    for (const Option& option : options_) {
        if (option.name == name)
            return &option;
    }
    return nullptr;
}

bool
OptionParser::parse(int argc, const char* const* argv,
                    std::string* error)
{
    given_.clear();
    helpRequested_ = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            helpRequested_ = true;
            return true;
        }
        if (arg.rfind("--", 0) != 0) {
            *error = "unexpected argument '" + arg + "'";
            return false;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        const std::size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        const Option* option = find(name);
        if (option == nullptr) {
            *error = "unknown option --" + name;
            return false;
        }
        if (!has_value && !option->isFlag) {
            if (i + 1 >= argc) {
                *error = "option --" + name + " needs a value";
                return false;
            }
            value = argv[++i];
        }
        const std::string apply_error = option->apply(value);
        if (!apply_error.empty()) {
            *error = "option --" + name + ": " + apply_error;
            return false;
        }
        given_.push_back(std::move(name));
    }
    return true;
}

bool
OptionParser::given(const std::string& name) const
{
    return std::find(given_.begin(), given_.end(), name) != given_.end();
}

std::string
OptionParser::help() const
{
    std::string out = "usage: " + program_ + " [options]\n";
    if (!description_.empty())
        out += description_ + "\n";
    out += "\noptions:\n";
    std::size_t width = 0;
    for (const Option& option : options_) {
        width = std::max(width, option.name.size() + 2
                                    + (option.valueHint.empty()
                                           ? 0
                                           : option.valueHint.size()
                                               + 1));
    }
    width = std::max(width, std::string("--help").size());
    for (const Option& option : options_) {
        std::string left = "--" + option.name;
        if (!option.valueHint.empty())
            left += " " + option.valueHint;
        out += "  " + left;
        out.append(width - left.size() + 2, ' ');
        out += option.help + "\n";
    }
    out += "  --help";
    out.append(width - 6 + 2, ' ');
    out += "show this message\n";
    return out;
}

} // namespace mediaworm::config
