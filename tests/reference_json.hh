/**
 * @file
 * JSON reader for artifact tests (test oracle).
 *
 * A recursive-descent reader for exactly the RFC 8259 JSON that
 * campaign::JsonWriter emits (objects, arrays, strings with the
 * writer's escape set, doubles, booleans, null). It reports failure
 * by position instead of aborting, so tests can assert on malformed
 * input, and lets schema and round-trip tests read an artifact back.
 */

#ifndef MEDIAWORM_TESTS_REFERENCE_JSON_HH
#define MEDIAWORM_TESTS_REFERENCE_JSON_HH

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mediaworm::reference {

/**
 * One parsed JSON value. Object member order is not preserved (keys
 * are sorted by std::map); artifact consumers address members by
 * name, never by position.
 */
struct JsonValue
{
    enum class Kind : char { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Member @p name of an object; nullptr when absent or not an
     *  object. */
    const JsonValue* find(std::string_view name) const;
};

/** Outcome of parseJson(): a value, or an error with a position. */
struct JsonParseResult
{
    bool ok = false;
    JsonValue value;
    std::string error;     ///< Empty on success.
    std::size_t position = 0; ///< Byte offset of the error.
};

/**
 * Parses @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected). Depth is limited to 64 nested scopes.
 */
JsonParseResult parseJson(std::string_view text);

} // namespace mediaworm::reference

#endif // MEDIAWORM_TESTS_REFERENCE_JSON_HH
