#include "campaign/json.hh"

#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace mediaworm::campaign {

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return; // value sits on the key's line
    }
    if (!stack_.empty()) {
        if (!firstInScope_)
            out_ += ',';
        out_ += '\n';
        indent();
    }
    firstInScope_ = false;
}

void
JsonWriter::indent()
{
    out_.append(2 * stack_.size(), ' ');
}

void
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    stack_.push_back(Scope::Object);
    firstInScope_ = true;
}

void
JsonWriter::endObject()
{
    MW_ASSERT(!stack_.empty() && stack_.back() == Scope::Object);
    const bool empty = firstInScope_;
    stack_.pop_back();
    if (!empty) {
        out_ += '\n';
        indent();
    }
    out_ += '}';
    firstInScope_ = false;
}

void
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    stack_.push_back(Scope::Array);
    firstInScope_ = true;
}

void
JsonWriter::endArray()
{
    MW_ASSERT(!stack_.empty() && stack_.back() == Scope::Array);
    const bool empty = firstInScope_;
    stack_.pop_back();
    if (!empty) {
        out_ += '\n';
        indent();
    }
    out_ += ']';
    firstInScope_ = false;
}

void
JsonWriter::key(std::string_view name)
{
    MW_ASSERT(!stack_.empty() && stack_.back() == Scope::Object);
    MW_ASSERT(!afterKey_);
    separate();
    out_ += '"';
    out_ += escape(name);
    out_ += "\": ";
    afterKey_ = true;
}

void
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        out_ += "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    out_ += buf;
}

void
JsonWriter::value(std::int64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    out_ += buf;
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
}

void
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
}

void
JsonWriter::value(std::string_view v)
{
    separate();
    out_ += '"';
    out_ += escape(v);
    out_ += '"';
}

const std::string&
JsonWriter::str() const
{
    MW_ASSERT(stack_.empty());
    return out_;
}

std::string
JsonWriter::escape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace mediaworm::campaign
