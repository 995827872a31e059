#ifndef REPLIDB_SQL_PARSER_H_
#define REPLIDB_SQL_PARSER_H_

#include <string>

#include "common/result.h"
#include "sql/ast.h"

namespace replidb::sql {

/// \brief Parses one SQL statement of the replidb dialect.
///
/// Dialect summary (case-insensitive keywords):
///   CREATE DATABASE [IF NOT EXISTS] name
///   CREATE [TEMPORARY] TABLE [IF NOT EXISTS] [db.]name (col TYPE
///       [PRIMARY KEY] [AUTO_INCREMENT] [UNIQUE] [NOT NULL], ...)
///   DROP TABLE [IF EXISTS] [db.]name
///   CREATE SEQUENCE name [START n]
///   INSERT INTO [db.]t [(cols)] VALUES (exprs), ...
///   UPDATE [db.]t SET col = expr, ... [WHERE expr]
///   DELETE FROM [db.]t [WHERE expr]
///   SELECT *|items FROM [db.]t [WHERE expr] [ORDER BY col [DESC], ...]
///       [LIMIT n] [FOR UPDATE]
///   BEGIN | COMMIT | ROLLBACK
///   CALL proc(args)
///
/// Expressions: literals, columns, arithmetic, comparisons, AND/OR/NOT,
/// NOW(), RAND(), NEXTVAL('seq'), ABS/LOWER/UPPER, `col IN (SELECT ...)`,
/// `col IN (v1, v2, ...)`.
///
/// Numeric literals are `digits [. digits] [(e|E) [+|-] digits]`; a
/// fraction or an exponent makes a double, so the `%.6g` text ToSql
/// prints for a finite double parses back. An integer literal outside
/// int64 is an error.
Result<Statement> Parse(const std::string& sql);

}  // namespace replidb::sql

#endif  // REPLIDB_SQL_PARSER_H_
