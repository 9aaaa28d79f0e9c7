/**
 * @file
 * Minimal streaming JSON writer for campaign artifacts.
 *
 * Writer output is deterministic by construction: keys are emitted in
 * the order the caller writes them, doubles use a fixed "%.10g"
 * format, and indentation is fixed at two spaces - so two campaigns
 * that compute identical values serialise to byte-identical files
 * regardless of thread count. Non-finite doubles serialise as null
 * (JSON has no NaN/Inf). The tests read artifacts back with the
 * reader in tests/reference_json.hh.
 */

#ifndef MEDIAWORM_CAMPAIGN_JSON_HH
#define MEDIAWORM_CAMPAIGN_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mediaworm::campaign {

/** Builds a pretty-printed JSON document incrementally. */
class JsonWriter
{
  public:
    JsonWriter() = default;

    /** Opens an object ("{"). */
    void beginObject();
    /** Closes the innermost object. */
    void endObject();
    /** Opens an array ("["). */
    void beginArray();
    /** Closes the innermost array. */
    void endArray();

    /** Emits an object key; the next value/begin* call is its value. */
    void key(std::string_view name);

    void value(double v);
    void value(std::int64_t v);
    void value(std::uint64_t v);
    void value(bool v);
    void value(std::string_view v);
    void value(const char* v) { value(std::string_view(v)); }

    /** key() + value() in one call. */
    template <typename T>
    void member(std::string_view name, T v)
    {
        key(name);
        value(v);
    }

    /** The finished document; all scopes must be closed. */
    const std::string& str() const;

    /** Escapes @p text per RFC 8259 (quotes not included). */
    static std::string escape(std::string_view text);

  private:
    enum class Scope : char { Object, Array };

    void separate(); ///< Comma/newline/indent before a new element.
    void indent();

    std::string out_;
    std::vector<Scope> stack_;
    bool firstInScope_ = true;
    bool afterKey_ = false;
};

} // namespace mediaworm::campaign

#endif // MEDIAWORM_CAMPAIGN_JSON_HH
