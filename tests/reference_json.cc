#include "reference_json.hh"

#include <cstdlib>

namespace mediaworm::reference {

const JsonValue*
JsonValue::find(std::string_view name) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = object.find(std::string(name));
    return it == object.end() ? nullptr : &it->second;
}

namespace {

/** Recursive-descent RFC 8259 parser over a string_view cursor. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonParseResult
    run()
    {
        JsonParseResult result;
        skipWs();
        if (!parseValue(result.value, 0)) {
            result.error = error_;
            result.position = pos_;
            return result;
        }
        skipWs();
        if (pos_ != text_.size()) {
            result.error = "trailing characters after document";
            result.position = pos_;
            return result;
        }
        result.ok = true;
        return result;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const char* message)
    {
        if (error_.empty())
            error_ = message;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("invalid literal");
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(JsonValue& out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        switch (text_[pos_]) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue& out, int depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after key");
            ++pos_;
            skipWs();
            JsonValue member;
            if (!parseValue(member, depth + 1))
                return false;
            out.object.emplace(std::move(key), std::move(member));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue& out, int depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue element;
            if (!parseValue(element, depth + 1))
                return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string& out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (++pos_ >= text_.size())
                return fail("unterminated escape");
            switch (text_[pos_]) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                // The writer only emits \u00xx for control bytes;
                // decode the low byte and reject surrogates.
                if (pos_ + 4 >= text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 1; i <= 4; ++i) {
                    const char h = text_[pos_ + i];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("invalid \\u escape");
                }
                if (code > 0xff)
                    return fail("non-latin \\u escape unsupported");
                out += static_cast<char>(code);
                pos_ += 4;
                break;
              }
              default:
                return fail("unknown escape character");
            }
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue& out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()
               && ((text_[pos_] >= '0' && text_[pos_] <= '9')
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E' || text_[pos_] == '+'
                   || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a value");
        char* end = nullptr;
        const std::string token(text_.substr(start, pos_ - start));
        out.number = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number");
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace

JsonParseResult
parseJson(std::string_view text)
{
    return JsonParser(text).run();
}

} // namespace mediaworm::reference
