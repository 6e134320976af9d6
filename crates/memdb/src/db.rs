//! A named collection of tables.

use crate::{DbError, Schema, Table, TableConfig};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// An in-memory database: named [`Table`]s, each indexed by Leap-Lists.
///
/// # Example
///
/// ```
/// use leap_memdb::{Db, Schema};
/// let db = Db::new();
/// db.create_table("users", Schema::new(&["id", "age"]).with_index("age")).unwrap();
/// let users = db.table("users").unwrap();
/// users.insert(&[1, 33]).unwrap();
/// assert_eq!(users.count_by("age", 30, 40).unwrap(), 1);
/// ```
#[derive(Default)]
pub struct Db {
    tables: RwLock<HashMap<String, Arc<Table>>>,
}

impl Db {
    /// Creates an empty database.
    pub fn new() -> Self {
        Db {
            tables: RwLock::new(HashMap::new()),
        }
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] if the name is taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>, DbError> {
        self.create_table_with(name, schema, TableConfig::default())
    }

    /// Creates a table on a store built from an explicit [`TableConfig`].
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] if the name is taken.
    pub fn create_table_with(
        &self,
        name: &str,
        schema: Schema,
        config: TableConfig,
    ) -> Result<Arc<Table>, DbError> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let table = Arc::new(Table::with_config(schema, config));
        tables.insert(name.to_string(), table.clone());
        Ok(table)
    }

    /// Fetches a table by name.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] if absent.
    pub fn table(&self, name: &str) -> Result<Arc<Table>, DbError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Drops a table, returning it.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] if absent.
    pub fn drop_table(&self, name: &str) -> Result<Arc<Table>, DbError> {
        self.tables
            .write()
            .remove(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("tables", &self.table_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_fetch_drop() {
        let db = Db::new();
        db.create_table("t", Schema::new(&["a"])).unwrap();
        assert!(db.create_table("t", Schema::new(&["a"])).is_err());
        assert!(db.table("t").is_ok());
        assert_eq!(db.table_names(), vec!["t".to_string()]);
        db.drop_table("t").unwrap();
        assert!(db.table("t").is_err());
        assert!(db.drop_table("t").is_err());
    }

    #[test]
    fn tables_are_shared_handles() {
        let db = Db::new();
        let t1 = db.create_table("x", Schema::new(&["a"])).unwrap();
        let t2 = db.table("x").unwrap();
        t1.insert(&[5]).unwrap();
        assert_eq!(t2.len(), 1);
    }
}
