/**
 * @file
 * Minimal declarative command-line option parser for the simulator
 * front-end and examples.
 *
 * Supports --name=value and --name value forms, boolean flags,
 * numeric range validation and string choices; produces aligned
 * --help text. No dynamic dispatch surprises, no global state.
 */

#ifndef MEDIAWORM_CONFIG_OPTIONS_HH
#define MEDIAWORM_CONFIG_OPTIONS_HH

#include <functional>
#include <string>
#include <vector>

namespace mediaworm::config {

/** Parses all of @p text as one finite number; false on junk, NaN
 *  or infinity (strtod takes them, and NaN fails no x < lo test). */
bool parseFiniteDouble(const std::string& text, double* out);

/** Parses all of @p text as one base-10 integer; false on junk or a
 *  value outside long's range. */
bool parseLong(const std::string& text, long* out);

/** Declarative option table with type-checked binding. */
class OptionParser
{
  public:
    /** @param program Name shown in the help header. */
    explicit OptionParser(std::string program,
                          std::string description = "");

    /** Boolean flag: present -> true ("--name" or "--name=true"). */
    void addFlag(const std::string& name, const std::string& help,
                 bool* target);

    /** Integer option with an inclusive validity range. */
    void addInt(const std::string& name, const std::string& help,
                int* target, int min_value, int max_value);

    /** Floating-point option with an inclusive validity range. */
    void addDouble(const std::string& name, const std::string& help,
                   double* target, double min_value, double max_value);

    /** Free-form string option. */
    void addString(const std::string& name, const std::string& help,
                   std::string* target);

    /**
     * Enumerated option: the value must be one of @p choices; the
     * matching index is stored through @p target.
     */
    void addChoice(const std::string& name, const std::string& help,
                   std::vector<std::string> choices, int* target);

    /**
     * Parses argv. Unknown options, non-option arguments, missing
     * values and range violations fail with a message in @p error.
     *
     * @return True on success. "--help" sets helpRequested() and
     *         returns true without consuming further arguments.
     */
    bool parse(int argc, const char* const* argv, std::string* error);

    /** True if "--help" was seen during parse(). */
    bool helpRequested() const { return helpRequested_; }

    /** True if option --@p name was given during parse(). */
    bool given(const std::string& name) const;

    /** Aligned usage text. */
    std::string help() const;

  private:
    struct Option
    {
        std::string name;
        std::string help;
        std::string valueHint;
        bool isFlag = false;
        /** Applies a value string; returns an error or empty. */
        std::function<std::string(const std::string&)> apply;
    };

    const Option* find(const std::string& name) const;

    std::string program_;
    std::string description_;
    std::vector<Option> options_;
    std::vector<std::string> given_;
    bool helpRequested_ = false;
};

} // namespace mediaworm::config

#endif // MEDIAWORM_CONFIG_OPTIONS_HH
